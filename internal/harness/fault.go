package harness

import (
	"sync/atomic"

	"vscc/internal/fault"
)

// faultConfig mirrors the -fault flag of the commands: when set, every
// system a sweep builds runs under the parsed fault schedule.
var faultConfig atomic.Pointer[fault.Config]

// SetFaultSpec arms deterministic fault injection (vscc.Config.Faults)
// for every system subsequently built by this package's sweeps. The
// spec uses the fault.ParseSpec grammar (e.g. "seed=7,drop=20,stall=
// 1e6:2e5"); an empty spec disarms. Each sweep point builds its own
// injector from the same config value, so serial and -parallel runs
// draw identical fault schedules and stay byte-identical. Process-wide
// and safe to call concurrently; systems already built keep their mode.
func SetFaultSpec(spec string) error {
	cfg, err := fault.ParseSpec(spec)
	if err != nil {
		return err
	}
	faultConfig.Store(cfg)
	return nil
}
