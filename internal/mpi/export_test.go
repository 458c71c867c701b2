package mpi

import "spam/internal/am"

// AMStats returns rank c's AM endpoint counters.
func (c *Comm) AMStats() am.Stats { return c.ep.Stats }
