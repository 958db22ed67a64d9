package scale

// GossipTraffic models per-round message counts for a fleet of n members:
// flat (every member syncs its whole pool) versus hierarchical (members
// sync within their region, and one leader per region syncs a top pool of
// leaders). The regions are the sweep's gateways: ⌊n/regionSize⌋ full
// regions plus one holding the remainder. No daemon runs the hierarchy;
// the sweep and ew-sc98 -fig scale record both counts so that the scaling
// claim is checkable.
func GossipTraffic(n, regionSize int) (flat, hier int) {
	if n <= 0 {
		return 0, 0
	}
	if regionSize <= 0 {
		regionSize = 16
	}
	full, rem := n/regionSize, n%regionSize
	regions := full
	if rem > 0 {
		regions++
	}
	flat = n * (n - 1)
	hier = full*regionSize*(regionSize-1) + rem*(rem-1) + regions*(regions-1)
	return flat, hier
}
