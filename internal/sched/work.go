// Package sched implements the EveryWare application scheduling servers
// (section 3.1.1 of the paper).
//
// A collection of cooperating but independent scheduling servers controls
// application execution dynamically. Each computational client
// periodically reports progress to a scheduling server; servers issue
// control directives based on the algorithm the client is executing, how
// much progress it has made, and its most recent computational rate.
// Schedulers migrate work using NWS-style forecasts of client performance:
// if a client is predicted slow, its current workload can be moved to a
// machine predicted faster. Schedulers are stateless in the sense that all
// their decisions are recoverable from client reports, so clients can
// switch to another viable scheduler when one dies (the Condor lesson of
// section 5.4).
package sched

import (
	"everyware/internal/wire"
)

// Lingua franca message types for the scheduling service (range 50-59).
const (
	// MsgReport carries a client progress report; the response is a
	// Directive.
	MsgReport wire.MsgType = 50
)

// Reports are last-write-wins per client (the scheduler keeps only the
// latest record and re-issues a directive), so they survive duplicate
// delivery and may be retransmitted on ambiguity.
func init() {
	wire.Define(MsgReport, "sched.report", true)
	wire.Reserve(51, "sched.stats")
	wire.Reserve(52, "sched.report_batch")
}

// WorkUnit describes one unit of Ramsey search work.
type WorkUnit struct {
	// ID is scheduler-unique.
	ID uint64
	// N and K define the search space (counter-example for R(K) on N
	// vertices).
	N, K int
	// Heuristic names the search algorithm the client should run.
	Heuristic string
	// Seed makes the unit reproducible.
	Seed int64
	// Steps is the number of heuristic steps to run before the next
	// report.
	Steps int64
	// State optionally carries an encoded coloring to restore — this is
	// how in-progress work migrates between clients.
	State []byte
}

// EncodeWorkUnit serializes a work unit.
func EncodeWorkUnit(w WorkUnit) []byte {
	var e wire.Encoder
	encodeWorkUnitInto(&e, w)
	return e.Bytes()
}

// workUnitSize is the exact encoded size of w — the batch framing
// length-prefixes nested records, so sizes must be computable without a
// scratch encoding.
func workUnitSize(w WorkUnit) int {
	return 8 + 4 + 4 + 4 + len(w.Heuristic) + 8 + 8 + 4 + len(w.State)
}

func encodeWorkUnitInto(e *wire.Encoder, w WorkUnit) {
	e.PutUint64(w.ID)
	e.PutUint32(uint32(w.N))
	e.PutUint32(uint32(w.K))
	e.PutString(w.Heuristic)
	e.PutInt64(w.Seed)
	e.PutInt64(w.Steps)
	e.PutBytes(w.State)
}

// DecodeWorkUnit parses a work unit.
func DecodeWorkUnit(p []byte) (WorkUnit, error) {
	return decodeWorkUnitFrom(wire.NewDecoder(p))
}

func decodeWorkUnitFrom(d *wire.Decoder) (WorkUnit, error) {
	var w WorkUnit
	var err error
	if w.ID, err = d.Uint64(); err != nil {
		return w, err
	}
	n32, err := d.Uint32()
	if err != nil {
		return w, err
	}
	w.N = int(n32)
	k32, err := d.Uint32()
	if err != nil {
		return w, err
	}
	w.K = int(k32)
	if w.Heuristic, err = d.String(); err != nil {
		return w, err
	}
	if w.Seed, err = d.Int64(); err != nil {
		return w, err
	}
	if w.Steps, err = d.Int64(); err != nil {
		return w, err
	}
	// Bytes copies out of the packet buffer already; keep nil for empty.
	st, err := d.Bytes()
	if err != nil {
		return w, err
	}
	if len(st) > 0 {
		w.State = st
	}
	return w, nil
}

// Report is one client progress report.
type Report struct {
	// ClientID uniquely identifies the client process.
	ClientID string
	// Infra names the infrastructure the client runs under ("unix",
	// "globus", "legion", "condor", "nt", "java", "netsolve").
	Infra string
	// WorkID is the unit being worked on (0 = requesting first work).
	WorkID uint64
	// Ops is the useful integer operation count since the last report.
	Ops int64
	// ElapsedSec is the wall time covered by Ops, including all
	// communication delays (as the paper measures).
	ElapsedSec float64
	// Conflicts is the current monochromatic clique count (0 = found).
	Conflicts int
	// Iterations is the total heuristic step count on this unit.
	Iterations int64
	// Found reports that State encodes a counter-example.
	Found bool
	// State is the client's current coloring (for migration and
	// checkpointing); may be empty to save bandwidth.
	State []byte
}

// reportSize is the exact encoded size of r.
func reportSize(r Report) int {
	return 4 + len(r.ClientID) + 4 + len(r.Infra) + 8 + 8 + 8 + 4 + 8 + 1 + 4 + len(r.State)
}

// EncodeWire implements wire.Message: the report encodes in place into a
// pooled request buffer, reserving its full size once.
func (r Report) EncodeWire(e *wire.Encoder) {
	e.Grow(reportSize(r))
	e.PutString(r.ClientID)
	e.PutString(r.Infra)
	e.PutUint64(r.WorkID)
	e.PutInt64(r.Ops)
	e.PutFloat64(r.ElapsedSec)
	e.PutUint32(uint32(r.Conflicts))
	e.PutInt64(r.Iterations)
	e.PutBool(r.Found)
	e.PutBytes(r.State)
}

// EncodeReport serializes a report into a fresh buffer (non-pooled callers
// and tests; the hot path encodes via EncodeWire).
func EncodeReport(r Report) []byte {
	var e wire.Encoder
	r.EncodeWire(&e)
	return e.Bytes()
}

// DecodeReport parses a report.
func DecodeReport(p []byte) (Report, error) {
	d := wire.NewDecoder(p)
	var r Report
	var err error
	if r.ClientID, err = d.String(); err != nil {
		return r, err
	}
	if r.Infra, err = d.String(); err != nil {
		return r, err
	}
	if r.WorkID, err = d.Uint64(); err != nil {
		return r, err
	}
	if r.Ops, err = d.Int64(); err != nil {
		return r, err
	}
	if r.ElapsedSec, err = d.Float64(); err != nil {
		return r, err
	}
	c32, err := d.Uint32()
	if err != nil {
		return r, err
	}
	r.Conflicts = int(c32)
	if r.Iterations, err = d.Int64(); err != nil {
		return r, err
	}
	if r.Found, err = d.Bool(); err != nil {
		return r, err
	}
	// Bytes copies out of the packet buffer already; keep nil for empty.
	st, err := d.Bytes()
	if err != nil {
		return r, err
	}
	if len(st) > 0 {
		r.State = st
	}
	return r, nil
}

// DirectiveKind is the scheduler's instruction to a client.
type DirectiveKind uint8

// Directive kinds.
const (
	// DirContinue: keep working on the current unit for Steps more steps.
	DirContinue DirectiveKind = iota + 1
	// DirNewWork: abandon/complete the current unit and start Work.
	DirNewWork
	// DirStop: shut down (resource reclaimed or application finished).
	DirStop
	// DirShed: admission control refused the report. Nothing was
	// recorded; the client keeps its current unit and budget and
	// re-reports later — a degraded success mirroring pstate's
	// ErrSpooled contract, never a work loss.
	DirShed
)

// Directive is the scheduler's reply to a report.
type Directive struct {
	Kind DirectiveKind
	// Steps is the new step budget (DirContinue).
	Steps int64
	// Work is the next unit (DirNewWork).
	Work WorkUnit
}

// directiveSize is the exact encoded size of dr.
func directiveSize(dr Directive) int {
	return 1 + 8 + workUnitSize(dr.Work)
}

// EncodeWire implements wire.Message: the directive encodes in place into
// a pooled reply buffer, reserving its full size once.
func (dr Directive) EncodeWire(e *wire.Encoder) {
	e.Grow(directiveSize(dr))
	e.PutUint8(uint8(dr.Kind))
	e.PutInt64(dr.Steps)
	encodeWorkUnitInto(e, dr.Work)
}

// DecodeWire implements wire.Decodable. Nested byte fields are copied out
// of the packet buffer, so the directive outlives the packet.
func (dr *Directive) DecodeWire(d *wire.Decoder) error {
	k, err := d.Uint8()
	if err != nil {
		return err
	}
	dr.Kind = DirectiveKind(k)
	if dr.Steps, err = d.Int64(); err != nil {
		return err
	}
	dr.Work, err = decodeWorkUnitFrom(d)
	return err
}

// EncodeDirective serializes a directive.
func EncodeDirective(dr Directive) []byte {
	var e wire.Encoder
	dr.EncodeWire(&e)
	return e.Bytes()
}

// DecodeDirective parses a directive.
func DecodeDirective(p []byte) (Directive, error) {
	var dr Directive
	err := dr.DecodeWire(wire.NewDecoder(p))
	return dr, err
}
