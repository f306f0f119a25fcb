package harness

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"vscc/internal/npb"
	"vscc/internal/vscc"
)

// withParallelism runs body under a fixed fan-out, restoring the
// previous setting afterwards.
func withParallelism(t *testing.T, n int, body func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	body()
}

func TestForEachPointCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		withParallelism(t, workers, func() {
			const n = 23
			var hits [n]atomic.Int64
			if err := ForEachPoint(n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d: point %d ran %d times, want 1", workers, i, got)
				}
			}
		})
	}
}

func TestForEachPointReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	withParallelism(t, 4, func() {
		err := ForEachPoint(10, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 7:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("err = %v, want the lowest-index error %v", err, errLow)
		}
	})
}

func TestSetParallelismClampsAndDefaults(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(-5)
	if Parallelism() < 1 {
		t.Errorf("negative parallelism left fan-out %d", Parallelism())
	}
	SetParallelism(7)
	if Parallelism() != 7 {
		t.Errorf("Parallelism() = %d, want 7", Parallelism())
	}
}

func TestParallelBTSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point BT sweep")
	}
	cfg := BTSweepConfig{Class: npb.ClassW, Iterations: 1, Scheme: vscc.SchemeVDMA, Devices: 1}
	counts := []int{4, 9, 16}
	var serial, parallel []BTPoint
	withParallelism(t, 1, func() {
		var err error
		serial, err = BTSweep(cfg, counts)
		if err != nil {
			t.Fatal(err)
		}
	})
	withParallelism(t, 4, func() {
		var err error
		parallel, err = BTSweep(cfg, counts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel BT sweep diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestParallelAblationSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation grid sweep")
	}
	bursts := []int{256, 1024}
	var serial, parallel map[int]float64
	withParallelism(t, 1, func() {
		var err error
		serial, err = AblateDMABurst(4096, 1, bursts)
		if err != nil {
			t.Fatal(err)
		}
	})
	withParallelism(t, 4, func() {
		var err error
		parallel, err = AblateDMABurst(4096, 1, bursts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel ablation diverged: serial %v, parallel %v", serial, parallel)
	}
}
