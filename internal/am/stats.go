package am

// Totals aggregates protocol statistics across all endpoints of a system.
func (s *System) Totals() Stats {
	var t Stats
	for _, ep := range s.EPs {
		st := ep.Stats
		t.Requests += st.Requests
		t.Replies += st.Replies
		t.Stores += st.Stores
		t.Gets += st.Gets
		t.BytesSent += st.BytesSent
		t.PacketsSent += st.PacketsSent
		t.PacketsReceived += st.PacketsReceived
		t.Retransmits += st.Retransmits
		t.NacksSent += st.NacksSent
		t.AcksSent += st.AcksSent
		t.Probes += st.Probes
		t.Polls += st.Polls
		t.EmptyPolls += st.EmptyPolls
		t.Duplicates += st.Duplicates
		t.CorruptDropped += st.CorruptDropped
		t.RTTSamples += st.RTTSamples
		t.Backoffs += st.Backoffs
		t.DeadPeers += st.DeadPeers
	}
	return t
}
