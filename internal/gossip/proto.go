package gossip

import (
	"everyware/internal/wire"
)

// Lingua franca message types used by the state exchange service
// (range 20-29).
const (
	// MsgRegister registers a component with a Gossip
	// (payload: Registration).
	MsgRegister wire.MsgType = 20
	// MsgGetState asks a component for its current copy of a key
	// (payload: key string; response: Stamped).
	MsgGetState wire.MsgType = 21
	// MsgPutState pushes a fresh copy of a key to a stale component
	// (payload: Stamped).
	MsgPutState wire.MsgType = 22
	// MsgShareReg replicates registration tables between Gossips
	// (payload: []Registration).
	MsgShareReg wire.MsgType = 23
)

// Every Gossip message is safe under duplicate delivery: registrations
// are keyed set operations, state pushes carry version counters (stale
// copies are discarded), and the rest are reads. All may therefore be
// retransmitted when a call's outcome is ambiguous.
func init() {
	wire.Define(MsgRegister, "gossip.register", true)
	wire.Define(MsgGetState, "gossip.get_state", true)
	wire.Define(MsgPutState, "gossip.put_state", true)
	wire.Define(MsgShareReg, "gossip.share_reg", true)
	wire.Reserve(24, "gossip.pool_info")
	wire.Reserve(25, "gossip.deregister")
}

// EncodeWire implements wire.Message: the Stamped encodes in place into a
// pooled request/reply buffer, reserving its full size once.
func (s Stamped) EncodeWire(e *wire.Encoder) {
	e.Grow(4 + len(s.Key) + 8 + 8 + 4 + len(s.Origin) + 4 + len(s.Data))
	e.PutString(s.Key)
	e.PutUint64(s.Counter)
	e.PutInt64(s.Unix)
	e.PutString(s.Origin)
	e.PutBytes(s.Data)
}

// DecodeWire implements wire.Decodable. Data is copied out of the packet
// buffer (Decoder.Bytes copies), so the Stamped outlives the packet.
func (s *Stamped) DecodeWire(d *wire.Decoder) error {
	var err error
	if s.Key, err = d.String(); err != nil {
		return err
	}
	if s.Counter, err = d.Uint64(); err != nil {
		return err
	}
	if s.Unix, err = d.Int64(); err != nil {
		return err
	}
	if s.Origin, err = d.String(); err != nil {
		return err
	}
	s.Data, err = d.Bytes()
	return err
}

// EncodeStamped serializes a Stamped value into a fresh buffer (non-pooled
// callers and tests; the hot path encodes via EncodeWire).
func EncodeStamped(s Stamped) []byte {
	var e wire.Encoder
	s.EncodeWire(&e)
	return e.Bytes()
}

// DecodeStamped parses a Stamped value.
func DecodeStamped(p []byte) (Stamped, error) {
	var s Stamped
	err := s.DecodeWire(wire.NewDecoder(p))
	return s, err
}

// EncodeWire implements wire.Message for a single Registration.
func (r Registration) EncodeWire(e *wire.Encoder) {
	e.Grow(12 + len(r.Addr) + len(r.Key) + len(r.Comparator))
	e.PutString(r.Addr)
	e.PutString(r.Key)
	e.PutString(r.Comparator)
}

// DecodeWire implements wire.Decodable.
func (r *Registration) DecodeWire(d *wire.Decoder) error {
	var err error
	if r.Addr, err = d.String(); err != nil {
		return err
	}
	if r.Key, err = d.String(); err != nil {
		return err
	}
	r.Comparator, err = d.String()
	return err
}

// RegTable is a registration table as a wire message (MsgShareReg payload).
type RegTable []Registration

// EncodeWire implements wire.Message.
func (rs RegTable) EncodeWire(e *wire.Encoder) {
	e.PutUint32(uint32(len(rs)))
	for _, r := range rs {
		r.EncodeWire(e)
	}
}

// DecodeWire implements wire.Decodable.
func (rs *RegTable) DecodeWire(d *wire.Decoder) error {
	n, err := d.Count(12)
	if err != nil {
		return err
	}
	out := make([]Registration, 0, n)
	for i := 0; i < n; i++ {
		var r Registration
		if err := r.DecodeWire(d); err != nil {
			return err
		}
		out = append(out, r)
	}
	*rs = out
	return nil
}

// DecodeRegistration parses one Registration.
func DecodeRegistration(p []byte) (Registration, error) {
	var r Registration
	err := r.DecodeWire(wire.NewDecoder(p))
	return r, err
}

// EncodeRegistrations serializes a registration table.
func EncodeRegistrations(rs []Registration) []byte {
	var e wire.Encoder
	RegTable(rs).EncodeWire(&e)
	return e.Bytes()
}

// DecodeRegistrations parses a registration table.
func DecodeRegistrations(p []byte) ([]Registration, error) {
	var rs RegTable
	err := rs.DecodeWire(wire.NewDecoder(p))
	return rs, err
}
