package ramsey

import (
	"fmt"

	"everyware/internal/gossip"
	"everyware/internal/wire"
)

// The Ramsey search "requires individual processes to communicate and
// synchronize as they prune the search space" (section 3). EveryWare
// clients do this by replicating their best in-progress coloring — the
// elite — through the Gossip service: a client that has fallen far behind
// the pool restarts from the replicated elite instead of grinding through
// a region the pool has already beaten. The grid's components together are
// the section-6 portfolio search: each publishes its elite under
// core.ComponentConfig.EliteShareKey and adopts a replicated one that is at
// least 20% fitter.

// Elite is a best-so-far coloring with its monochromatic clique count.
type Elite struct {
	// Conflicts is the coloring's monochromatic K-clique count.
	Conflicts int
	// K is the clique size being avoided.
	K int
	// Coloring is the witness state.
	Coloring *Coloring
}

// Encode serializes the elite record.
func (e *Elite) Encode() []byte {
	var enc wire.Encoder
	enc.PutUint32(uint32(e.Conflicts))
	enc.PutUint32(uint32(e.K))
	enc.PutBytes(e.Coloring.Encode())
	return enc.Bytes()
}

// DecodeElite parses an elite record.
func DecodeElite(p []byte) (*Elite, error) {
	d := wire.NewDecoder(p)
	c32, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	k32, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	cb, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	col, err := DecodeColoring(cb)
	if err != nil {
		return nil, err
	}
	return &Elite{Conflicts: int(c32), K: int(k32), Coloring: col}, nil
}

// EliteComparator is the gossip comparator name for elite state: fewer
// conflicts is fresher; among equals, more vertices win (a bigger graph at
// the same conflict count is closer to a better bound).
const EliteComparator = "ramsey/elite"

func init() {
	err := gossip.RegisterComparator(EliteComparator, func(a, b gossip.Stamped) int {
		ea, errA := DecodeElite(a.Data)
		eb, errB := DecodeElite(b.Data)
		switch {
		case errA != nil && errB != nil:
			return 0
		case errA != nil:
			return -1
		case errB != nil:
			return 1
		}
		// Fewer conflicts wins.
		switch {
		case ea.Conflicts < eb.Conflicts:
			return 1
		case ea.Conflicts > eb.Conflicts:
			return -1
		}
		switch {
		case ea.Coloring.N() > eb.Coloring.N():
			return 1
		case ea.Coloring.N() < eb.Coloring.N():
			return -1
		}
		return 0
	})
	if err != nil {
		panic(fmt.Sprintf("ramsey: elite comparator: %v", err))
	}
}
