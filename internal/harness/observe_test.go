package harness

import (
	"testing"

	"vscc/internal/trace"
)

// With no observer installed every measurement runs untraced (nil
// sinks), and observers uninstall cleanly.
func TestObserverUninstalls(t *testing.T) {
	var col trace.Collector
	prev := SetObserver(col.New)
	SetObserver(prev)
	if _, err := OnChipPingPong(nil, 0, 1, []int{64}, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(col.Captures()); got != 0 {
		t.Errorf("uninstalled observer still captured %d sinks", got)
	}
}
