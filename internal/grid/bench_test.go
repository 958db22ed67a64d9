package grid

import (
	"testing"
	"time"
)

// BenchmarkReplayOneHour measures the discrete-event replay rate: one hour
// of SC98 (about 250 hosts) per iteration.
func BenchmarkReplayOneHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunSC98(ScenarioConfig{Seed: int64(i + 1), Duration: time.Hour, AdaptiveTimeouts: true})
	}
}

func BenchmarkCondorPlacementReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunCondorPlacement(CondorPlacementConfig{Seed: int64(i + 1), SchedulerInPool: true})
	}
}
