package scale

import "testing"

func TestGossipTrafficSublinear(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		flat, hier := GossipTraffic(n, 16)
		if hier >= flat {
			t.Errorf("n=%d: hierarchical traffic %d not below flat %d", n, hier, flat)
		}
	}
	// Doubling the fleet must grow hierarchical traffic far slower than
	// the flat O(n^2).
	_, h1 := GossipTraffic(512, 16)
	_, h2 := GossipTraffic(1024, 16)
	f1, _ := GossipTraffic(512, 16)
	f2, _ := GossipTraffic(1024, 16)
	if float64(h2)/float64(h1) >= float64(f2)/float64(f1) {
		t.Errorf("hierarchical growth %.2fx not below flat growth %.2fx",
			float64(h2)/float64(h1), float64(f2)/float64(f1))
	}
}

// TestGossipTrafficCountsSweepPartition checks the model against an
// explicit count over the regions the sweep builds: region i fronts
// members [i*size, min((i+1)*size, n)), each region is a full mesh of
// |r|(|r|-1) messages, and the R region leaders form one more, R(R-1).
func TestGossipTrafficCountsSweepPartition(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for size := 1; size <= 20; size++ {
			regions := (n + size - 1) / size
			want := regions * (regions - 1)
			for i := 0; i < regions; i++ {
				members := min(size, n-i*size)
				want += members * (members - 1)
			}
			flat, hier := GossipTraffic(n, size)
			if flat != n*(n-1) || hier != want {
				t.Fatalf("GossipTraffic(%d, %d) = (%d, %d), want (%d, %d)", n, size, flat, hier, n*(n-1), want)
			}
		}
	}
}
