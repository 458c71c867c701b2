package splitc

import "spam/internal/sim"

// pollLoop is a Table-4 node whose PollWait is the plain Poll it replaces.
type pollLoop struct{ *gnode }

func (n pollLoop) PollWait(p *sim.Proc) { n.Poll(p) }

// UsePollLoop gives every rank of pl a pollLoop node.
func (pl *GAMPlatform) UsePollLoop() {
	for _, rt := range pl.Runtimes {
		rt.T = pollLoop{rt.T.(*gnode)}
	}
}
