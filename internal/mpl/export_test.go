package mpl

// PktWindow is the number of data packets a sender may have in flight
// toward one peer.
const PktWindow = pktWindow

// Flow reports ep's message credit toward peer dst and the data packets it
// has in flight there.
func (ep *Endpoint) Flow(dst int) (credit, inFlight int) {
	return ep.peers[dst].credit, ep.peers[dst].pktAhead
}
