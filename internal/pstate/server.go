package pstate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// Lingua franca message types for the persistent state service
// (range 30-39). Every client speaks the replication plane: ReplicaSet
// assigns versions and fans out, over one replica or many.
const (
	// MsgStoreAt is the replication-plane write: an object with an explicit
	// version (and possibly a tombstone), applied only if it supersedes the
	// replica's current copy. Quorum writes, read-repair, and anti-entropy
	// repair all use it (payload: Object; response: applied, current
	// version).
	MsgStoreAt wire.MsgType = 35
	// MsgDigest returns the replica's per-key digest — name, version,
	// payload CRC, tombstone flag — the currency of anti-entropy rounds.
	MsgDigest wire.MsgType = 36
	// MsgPull is the replication-plane read: it returns tombstones too, so
	// a repairing peer can learn about deletions (payload: name; response:
	// found, Object).
	MsgPull wire.MsgType = 37
	// MsgSyncNow forces one anti-entropy round — the control plane's
	// backfill trigger when a promoted standby joins the quorum
	// (response: records transferred, round fully clean).
	MsgSyncNow wire.MsgType = 38
	// MsgSetPeers replaces the replica's anti-entropy sibling list — how
	// the control plane installs a post-promotion roster without a
	// restart (payload: addresses; response: empty).
	MsgSetPeers wire.MsgType = 39
)

// The replication plane is idempotent by construction: a MsgStoreAt
// carries its version, so re-applying it is a no-op, and digest/pull are
// reads. MsgSyncNow is a repair trigger (running it twice just converges
// twice) and MsgSetPeers installs an absolute list, so both retransmit
// safely.
func init() {
	wire.Reserve(30, "pstate.store")
	wire.Reserve(31, "pstate.fetch")
	wire.Reserve(32, "pstate.list")
	wire.Reserve(33, "pstate.delete")
	wire.Reserve(34, "pstate.usage")
	wire.Define(MsgStoreAt, "pstate.store_at", true)
	wire.Define(MsgDigest, "pstate.digest", true)
	wire.Define(MsgPull, "pstate.pull", true)
	wire.Define(MsgSyncNow, "pstate.sync_now", true)
	wire.Define(MsgSetPeers, "pstate.set_peers", true)
}

// CrashSite names a point inside Server.persist where the fault harness can
// simulate process death. Each site leaves characteristic on-disk debris
// the recovery scan must cope with; see the crash-point map in DESIGN.md.
type CrashSite string

// The persist crash-point map, in execution order.
const (
	// CrashBeforeTmp dies with the temp file created but empty.
	CrashBeforeTmp CrashSite = "before-tmp-write"
	// CrashMidTmp dies with half the CRC-framed object in the temp file.
	CrashMidTmp CrashSite = "mid-tmp-write"
	// CrashBeforeSync dies with the frame fully written but not fsynced.
	CrashBeforeSync CrashSite = "before-sync"
	// CrashBeforeRename dies with a complete durable temp file that never
	// reached the live name.
	CrashBeforeRename CrashSite = "before-rename"
	// CrashTornFinal dies mid-write of the live file itself — the
	// non-atomic-rename filesystem model; only the CRC frame can reveal the
	// damage on restart.
	CrashTornFinal CrashSite = "torn-final"
	// CrashAfterRename dies after the object is durable but before the
	// caller is acknowledged — the write survives, the ack is lost.
	CrashAfterRename CrashSite = "after-rename"
)

// CrashSites lists every persist crash point in execution order.
func CrashSites() []CrashSite {
	return []CrashSite{CrashBeforeTmp, CrashMidTmp, CrashBeforeSync,
		CrashBeforeRename, CrashTornFinal, CrashAfterRename}
}

// ServerConfig parameterizes a persistent state manager.
type ServerConfig struct {
	// ListenAddr is the bind address (":0" for ephemeral).
	ListenAddr string
	// Dir is the storage directory (created if missing).
	Dir string
	// MaxBytes bounds total payload bytes stored — the application's
	// dynamically schedulable disk footprint. 0 means unlimited.
	MaxBytes int64
	// Logf receives diagnostics (defaults to discard).
	Logf func(format string, args ...any)
	// Metrics, if set, is the daemon's shared telemetry registry (a fresh
	// one is created otherwise): store/fetch latency spans, quarantine and
	// temp-file-removal counters.
	Metrics *telemetry.Registry
	// Peers lists sibling persistent state managers for anti-entropy
	// repair; SetPeers can install or change the list after Start (useful
	// when sibling addresses are ephemeral).
	Peers []string
	// SyncInterval is the mean anti-entropy period (default 5s; each round
	// waits a jittered interval in [SyncInterval/2, 3*SyncInterval/2) so
	// replica fleets don't synchronize their repair traffic).
	SyncInterval time.Duration
	// Transport selects the wire substrate for the listener and
	// anti-entropy calls. Nil means TCP.
	Transport wire.Transport
	// Retry governs anti-entropy retransmission (nil: wire defaults).
	Retry *wire.RetryPolicy
	// CrashPoints, if set, is consulted at every CrashSite inside persist;
	// a non-nil return simulates process death at that point — persist
	// aborts immediately, leaving whatever the site had put on disk.
	// Installed by the fault harness; nil in production.
	CrashPoints func(CrashSite) error
	// Tracer, if set, records causal trace spans: inbound traced requests
	// get continuation spans, and each anti-entropy round roots a trace
	// covering its digest exchanges and repairs. Nil disables.
	Tracer wire.Tracer
}

// Server is one persistent state manager daemon.
type Server struct {
	cfg     ServerConfig
	svc     *wire.Service
	srv     *wire.Server
	metrics *telemetry.Registry

	// Timers for the three object operations ("pstate.<op>.<outcome>").
	storeSpans, storeAtSpans, fetchSpans *telemetry.SpanFamily

	mu      sync.Mutex
	objects map[string]*Object
	used    int64
	peers   []string

	syncStop chan struct{}
	syncWG   sync.WaitGroup
	peerWC   *wire.Client
	rng      *rand.Rand
	rngMu    sync.Mutex
}

// NewServer creates a manager storing under cfg.Dir, loading any objects a
// previous incarnation left there (state must survive process loss).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("pstate: storage directory required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 5 * time.Second
	}
	svc := wire.NewService(wire.ServiceConfig{
		Name:       "pstate",
		ListenAddr: cfg.ListenAddr,
		Transport:  cfg.Transport,
		Metrics:    cfg.Metrics,
		Retry:      cfg.Retry,
		Logf:       cfg.Logf,
		Tracer:     cfg.Tracer,
	})
	s := &Server{
		cfg:      cfg,
		svc:      svc,
		srv:      svc.Server(),
		metrics:  svc.Metrics(),
		peerWC:   svc.Client(),
		objects:  make(map[string]*Object),
		peers:    append([]string(nil), cfg.Peers...),
		syncStop: make(chan struct{}),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),

		storeSpans:   svc.Metrics().SpanFamily("pstate.store"),
		storeAtSpans: svc.Metrics().SpanFamily("pstate.store_at"),
		fetchSpans:   svc.Metrics().SpanFamily("pstate.fetch"),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	svc.Handle(MsgStoreAt, wire.HandlerFunc(s.handleStoreAt))
	svc.Handle(MsgDigest, wire.HandlerFunc(s.handleDigest))
	svc.Handle(MsgPull, wire.HandlerFunc(s.handlePull))
	svc.Handle(MsgSyncNow, wire.HandlerFunc(s.handleSyncNow))
	svc.Handle(MsgSetPeers, wire.HandlerFunc(s.handleSetPeers))
	svc.Handle(MsgEpochAdvance, wire.HandlerFunc(s.handleEpochAdvance))
	svc.Handle(MsgEpochGet, wire.HandlerFunc(s.handleEpochGet))
	return s, nil
}

// Start binds the listener, launches the anti-entropy loop, and returns
// the bound address.
func (s *Server) Start() (string, error) {
	addr, err := s.svc.Start()
	if err != nil {
		return addr, err
	}
	s.syncWG.Add(1)
	go s.syncLoop()
	return addr, nil
}

// SetPeers installs the sibling replica list the anti-entropy loop repairs
// against. Safe to call at any time; an empty list idles the loop.
func (s *Server) SetPeers(addrs []string) {
	s.mu.Lock()
	s.peers = append([]string(nil), addrs...)
	s.mu.Unlock()
}

// Peers returns the current anti-entropy peer list.
func (s *Server) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.peers...)
}

// Metrics returns the daemon's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// Addr returns the bound address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the daemon. Stored state remains on disk.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.syncStop:
	default:
		close(s.syncStop)
	}
	s.mu.Unlock()
	s.syncWG.Wait()
	s.svc.Close()
}

// fileFor maps an object name to its storage path. Names are hashed so
// arbitrary application keys cannot escape the directory.
func (s *Server) fileFor(name string) string {
	h := sha256.Sum256([]byte(name))
	return filepath.Join(s.cfg.Dir, hex.EncodeToString(h[:16])+".obj")
}

// encodeObject lays out an object record: name, class, version, data, and
// a trailing flags byte (bit 0: tombstone). The flags byte was appended in
// a later format revision, so decodeObject treats it as optional.
func encodeObject(o *Object) []byte {
	var e wire.Encoder
	e.PutString(o.Name)
	e.PutString(o.Class)
	e.PutUint64(o.Version)
	e.PutBytes(o.Data)
	var flags uint8
	if o.Tombstone {
		flags |= 1
	}
	e.PutUint8(flags)
	return e.Bytes()
}

func decodeObject(p []byte) (*Object, error) {
	d := wire.NewDecoder(p)
	var o Object
	var err error
	if o.Name, err = d.String(); err != nil {
		return nil, err
	}
	if o.Class, err = d.String(); err != nil {
		return nil, err
	}
	if o.Version, err = d.Uint64(); err != nil {
		return nil, err
	}
	data, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	o.Data = append([]byte(nil), data...)
	if d.Remaining() > 0 {
		flags, err := d.Uint8()
		if err != nil {
			return nil, err
		}
		o.Tombstone = flags&1 != 0
	}
	return &o, nil
}

// Object files are framed so a torn or bit-rotted write is detectable on
// recovery: a 4-byte magic, the IEEE CRC-32 of the body, then the encoded
// object. Files written by earlier incarnations (bare encoded object, no
// frame) are still readable.
var objMagic = [4]byte{'E', 'W', 'P', 'S'}

const objHeaderLen = 8 // magic + crc32

// frameObject wraps the encoded object with magic and checksum.
func frameObject(body []byte) []byte {
	out := make([]byte, objHeaderLen+len(body))
	copy(out, objMagic[:])
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	copy(out[objHeaderLen:], body)
	return out
}

// unframeObject validates the frame and returns the body. Legacy unframed
// files fall through: the caller decodes raw directly.
func unframeObject(raw []byte) (body []byte, framed bool, err error) {
	if len(raw) < objHeaderLen || [4]byte(raw[:4]) != objMagic {
		return raw, false, nil
	}
	body = raw[objHeaderLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(raw[4:8]); got != want {
		return nil, true, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return body, true, nil
}

// load is the recovery scan a restarting manager runs over its directory:
// orphaned temp files from writes interrupted mid-flight are removed, and
// object files whose frame fails checksum verification (a torn write that
// somehow reached the final name, or on-disk corruption) are quarantined
// rather than served.
func (s *Server) load() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(ent.Name(), ".tmp") {
			// A crash between temp-write and rename left this behind; the
			// rename never happened, so the old object (if any) is intact.
			s.cfg.Logf("pstate: removing orphaned temp file %s", ent.Name())
			_ = os.Remove(filepath.Join(s.cfg.Dir, ent.Name()))
			s.metrics.Counter("pstate.temp_removed").Inc()
			continue
		}
		if !strings.HasSuffix(ent.Name(), ".obj") {
			continue
		}
		path := filepath.Join(s.cfg.Dir, ent.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			s.cfg.Logf("pstate: skipping unreadable %s: %v", ent.Name(), err)
			continue
		}
		body, framed, err := unframeObject(raw)
		if err != nil {
			s.cfg.Logf("pstate: quarantining corrupt %s: %v", ent.Name(), err)
			_ = os.Rename(path, path+".corrupt")
			s.metrics.Counter("pstate.quarantined").Inc()
			continue
		}
		o, err := decodeObject(body)
		if err != nil {
			if framed {
				// Checksum passed but the body will not decode — a format
				// bug, not a torn write; keep the file for inspection.
				s.cfg.Logf("pstate: skipping undecodable %s: %v", ent.Name(), err)
			} else {
				s.cfg.Logf("pstate: quarantining corrupt legacy %s: %v", ent.Name(), err)
				_ = os.Rename(path, path+".corrupt")
				s.metrics.Counter("pstate.quarantined").Inc()
			}
			continue
		}
		s.objects[o.Name] = o
		s.used += int64(len(o.Data))
	}
	return nil
}

// crashAt consults the injected crash-point hook. A non-nil return means
// "the process died here": persist must abort immediately, cleaning
// nothing up, so the on-disk debris is exactly what a real crash at that
// instruction would leave.
func (s *Server) crashAt(site CrashSite) error {
	if s.cfg.CrashPoints == nil {
		return nil
	}
	if err := s.cfg.CrashPoints(site); err != nil {
		s.cfg.Logf("pstate: injected crash at %s", site)
		s.metrics.Counter("pstate.crash.injected").Inc()
		return err
	}
	return nil
}

// persist writes the object file atomically: checksummed frame to a temp
// file, fsync, then rename over the final name. A crash mid-write leaves
// either the previous object or a temp file the recovery scan removes —
// never a half-written object under the live name. The CrashSite hooks
// simulate death at each step of that sequence (including the torn-final
// model of a filesystem without atomic rename) for the crash-restart test
// suite.
func (s *Server) persist(o *Object) error {
	path := s.fileFor(o.Name)
	tmp := path + ".tmp"
	frame := frameObject(encodeObject(o))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := s.crashAt(CrashBeforeTmp); err != nil {
		f.Close()
		return err
	}
	if err := s.crashAt(CrashMidTmp); err != nil {
		_, _ = f.Write(frame[:len(frame)/2])
		f.Close()
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.crashAt(CrashBeforeSync); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := s.crashAt(CrashBeforeRename); err != nil {
		return err
	}
	if err := s.crashAt(CrashTornFinal); err != nil {
		// Model a non-atomic rename dying mid-copy: a prefix of the new
		// frame lands under the live name, clobbering the old object.
		_ = os.WriteFile(path, frame[:len(frame)-3], 0o644)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := s.crashAt(CrashAfterRename); err != nil {
		return err
	}
	return nil
}

// Store validates and stores data under name/class, returning the new
// version. Exposed for in-process use by the simulation.
func (s *Server) Store(name, class string, data []byte) (ver uint64, err error) {
	sp := s.storeSpans.Start()
	defer func() {
		if err != nil {
			sp.End(telemetry.OutcomeError)
		} else {
			sp.End(telemetry.OutcomeOK)
		}
	}()
	if name == "" {
		return 0, fmt.Errorf("pstate: empty object name")
	}
	// Run-time sanity check before anything touches disk.
	if v, ok := LookupValidator(class); ok {
		if err := v(name, data); err != nil {
			return 0, fmt.Errorf("pstate: validation failed for %q: %w", name, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.objects[name]
	delta := int64(len(data))
	if prev != nil {
		delta -= int64(len(prev.Data))
	}
	if s.cfg.MaxBytes > 0 && s.used+delta > s.cfg.MaxBytes {
		return 0, fmt.Errorf("pstate: quota exceeded (%d + %d > %d bytes)", s.used, delta, s.cfg.MaxBytes)
	}
	o := &Object{Name: name, Class: class, Version: 1, Data: append([]byte(nil), data...)}
	if prev != nil {
		// A tombstone still anchors the version counter, so a re-created
		// object cannot be shadowed by its own stale deletion.
		o.Version = prev.Version + 1
	}
	if err := s.persist(o); err != nil {
		return 0, err
	}
	s.objects[name] = o
	s.used += delta
	return o.Version, nil
}

// StoreAt applies a replication-plane write: the object (or tombstone)
// carries its version, and it is applied only if it supersedes the current
// copy under the replication total order. It returns whether the write was
// applied and the version now current at this replica.
func (s *Server) StoreAt(o *Object) (applied bool, cur uint64, err error) {
	sp := s.storeAtSpans.Start()
	defer func() {
		if err != nil {
			sp.End(telemetry.OutcomeError)
		} else {
			sp.End(telemetry.OutcomeOK)
		}
	}()
	if o.Name == "" {
		return false, 0, fmt.Errorf("pstate: empty object name")
	}
	if o.Version == 0 {
		return false, 0, fmt.Errorf("pstate: replica write needs a version")
	}
	if !o.Tombstone {
		// The run-time sanity check guards every ingest path, including
		// repair traffic: a corrupt replica must not propagate garbage.
		if v, ok := LookupValidator(o.Class); ok {
			if err := v(o.Name, o.Data); err != nil {
				return false, 0, fmt.Errorf("pstate: validation failed for %q: %w", o.Name, err)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.objects[o.Name]
	if !o.Supersedes(prev) {
		if prev != nil {
			return false, prev.Version, nil
		}
		return false, 0, nil
	}
	delta := int64(len(o.Data))
	if prev != nil {
		delta -= int64(len(prev.Data))
	}
	if !o.Tombstone && s.cfg.MaxBytes > 0 && s.used+delta > s.cfg.MaxBytes {
		return false, 0, fmt.Errorf("pstate: quota exceeded (%d + %d > %d bytes)", s.used, delta, s.cfg.MaxBytes)
	}
	cp := *o
	cp.Data = append([]byte(nil), o.Data...)
	if cp.Tombstone {
		cp.Data = nil
	}
	if err := s.persist(&cp); err != nil {
		return false, 0, err
	}
	s.objects[cp.Name] = &cp
	s.used += delta
	return true, cp.Version, nil
}

// Fetch returns the stored object, or nil if absent or deleted.
func (s *Server) Fetch(name string) *Object {
	sp := s.fetchSpans.Start()
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[name]
	if o == nil || o.Tombstone {
		sp.End(telemetry.OutcomeMiss)
		return nil
	}
	cp := *o
	cp.Data = append([]byte(nil), o.Data...)
	sp.End(telemetry.OutcomeOK)
	return &cp
}

// Pull returns the stored record including tombstones — the replication
// plane's read, so repairing peers learn about deletions too.
func (s *Server) Pull(name string) *Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[name]
	if o == nil {
		return nil
	}
	cp := *o
	cp.Data = append([]byte(nil), o.Data...)
	return &cp
}

// Names returns all live (non-tombstoned) object names, sorted.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for n, o := range s.objects {
		if !o.Tombstone {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Digest summarizes every record — live and tombstoned — as (name,
// version, payload CRC, tombstone), sorted by name. Two replicas with
// equal digests hold identical state; anti-entropy repairs toward that.
func (s *Server) Digest() []DigestEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DigestEntry, 0, len(s.objects))
	for n, o := range s.objects {
		e := DigestEntry{Name: n, Version: o.Version, Tombstone: o.Tombstone}
		if !o.Tombstone {
			e.CRC = crc32.ChecksumIEEE(o.Data)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete removes an object by writing a tombstone one version above the
// current record. The tombstone persists and circulates through
// anti-entropy, so replicas that missed the delete converge on it instead
// of resurrecting the object. Deleting an absent or already-deleted name
// is a no-op.
func (s *Server) Delete(delName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[delName]
	if !ok || o.Tombstone {
		return nil
	}
	ts := &Object{Name: delName, Class: o.Class, Version: o.Version + 1, Tombstone: true}
	if err := s.persist(ts); err != nil {
		return err
	}
	s.used -= int64(len(o.Data))
	s.objects[delName] = ts
	s.metrics.Counter("pstate.tombstones").Inc()
	return nil
}

// Usage returns (bytes stored, quota).
func (s *Server) Usage() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used, s.cfg.MaxBytes
}

// putObject encodes an object for the replication plane: name, class,
// version, tombstone, data.
func putObject(e *wire.Encoder, o *Object) {
	e.PutString(o.Name)
	e.PutString(o.Class)
	e.PutUint64(o.Version)
	e.PutBool(o.Tombstone)
	e.PutBytes(o.Data)
}

// getObject decodes a replication-plane object.
func getObject(d *wire.Decoder) (*Object, error) {
	var o Object
	var err error
	if o.Name, err = d.String(); err != nil {
		return nil, err
	}
	if o.Class, err = d.String(); err != nil {
		return nil, err
	}
	if o.Version, err = d.Uint64(); err != nil {
		return nil, err
	}
	if o.Tombstone, err = d.Bool(); err != nil {
		return nil, err
	}
	data, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	o.Data = append([]byte(nil), data...)
	return &o, nil
}

func (s *Server) handleStoreAt(_ string, req *wire.Packet) (*wire.Packet, error) {
	o, err := getObject(wire.NewDecoder(req.Payload))
	if err != nil {
		return nil, err
	}
	applied, cur, err := s.StoreAt(o)
	if err != nil {
		return nil, err
	}
	return wire.Reply(MsgStoreAt, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutBool(applied)
		e.PutUint64(cur)
	})), nil
}

func (s *Server) handleDigest(_ string, _ *wire.Packet) (*wire.Packet, error) {
	dig := s.Digest()
	return wire.Reply(MsgDigest, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint32(uint32(len(dig)))
		for _, ent := range dig {
			e.PutString(ent.Name)
			e.PutUint64(ent.Version)
			e.PutUint32(ent.CRC)
			e.PutBool(ent.Tombstone)
		}
	})), nil
}

func (s *Server) handlePull(_ string, req *wire.Packet) (*wire.Packet, error) {
	pname, err := wire.NewDecoder(req.Payload).String()
	if err != nil {
		return nil, err
	}
	o := s.Pull(pname)
	return wire.Reply(MsgPull, wire.MessageFunc(func(e *wire.Encoder) {
		if o == nil {
			e.PutBool(false)
			return
		}
		e.PutBool(true)
		putObject(e, o)
	})), nil
}

func (s *Server) handleSyncNow(_ string, _ *wire.Packet) (*wire.Packet, error) {
	n, err := s.SyncNow()
	return wire.Reply(MsgSyncNow, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint32(uint32(n))
		e.PutBool(err == nil)
	})), nil
}

func (s *Server) handleSetPeers(_ string, req *wire.Packet) (*wire.Packet, error) {
	d := wire.NewDecoder(req.Payload)
	n, err := d.Count(1)
	if err != nil {
		return nil, err
	}
	peers := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p, err := d.String()
		if err != nil {
			return nil, err
		}
		peers = append(peers, p)
	}
	s.SetPeers(peers)
	s.metrics.Gauge("pstate.peers").Set(int64(len(peers)))
	return wire.Reply(MsgSetPeers, nil), nil
}

// SyncNowAt forces one anti-entropy round on a remote replica — the
// control plane's backfill trigger after promoting a standby. Returns
// the records transferred and whether the round completed without peer
// errors.
func SyncNowAt(wc *wire.Client, addr string, timeout time.Duration) (int, error) {
	resp, err := wc.Call(addr, wire.NewRequest(MsgSyncNow, nil), timeout)
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	d := wire.NewDecoder(resp.Payload)
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	clean, err := d.Bool()
	if err != nil {
		return int(n), err
	}
	if !clean {
		return int(n), fmt.Errorf("pstate: sync on %s finished with peer errors", addr)
	}
	return int(n), nil
}

// SetPeersAt replaces a remote replica's anti-entropy sibling list — how
// the control plane installs a post-promotion roster without restarting
// the replica.
func SetPeersAt(wc *wire.Client, addr string, peers []string, timeout time.Duration) error {
	return wc.CallMsg(addr, MsgSetPeers, wire.MessageFunc(func(e *wire.Encoder) {
		e.PutUint32(uint32(len(peers)))
		for _, p := range peers {
			e.PutString(p)
		}
	}), nil, timeout)
}
