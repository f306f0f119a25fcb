package npb

import (
	"fmt"

	"vscc/internal/rcce"
)

// RunOn executes BT on an existing session, which must have exactly
// d.Ranks() ranks, and returns rank 0's result.
func RunOn(session *rcce.Session, d *Decomp, cfg Config) (Result, error) {
	if session.NumRanks() != d.Ranks() {
		return Result{}, fmt.Errorf("npb: session has %d ranks, decomposition needs %d", session.NumRanks(), d.Ranks())
	}
	var res Result
	if err := session.Run(Program(d, cfg, &res)); err != nil {
		return Result{}, err
	}
	return res, nil
}
