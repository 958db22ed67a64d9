package ctrl

import (
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/wire"
)

// BeaterConfig parameterizes one member's heartbeat sidecar.
type BeaterConfig struct {
	// Member identifies the daemon being attested.
	Member Member
	// Ctrls lists controller addresses; each beat is broadcast to every
	// one of them, so follower controllers accumulate the same warm
	// failure-detector state as the leader and a takeover needs no
	// re-bootstrap.
	Ctrls []string
	// Interval is the beat period (default 1s).
	Interval time.Duration
	// Timeout bounds each probe/beat RPC (default Interval, capped at 2s).
	Timeout time.Duration
	// Client carries the beats (shared with the harness when set). When
	// nil a private client is built from Transport/Dialer and closed with
	// the beater.
	Client    *wire.Client
	Transport wire.Transport
	Dialer    wire.DialFunc
	// Logf receives beat diagnostics.
	Logf func(format string, args ...any)
}

// Beater is the liveness sidecar: it periodically probes its member and
// relays an attested heartbeat to the controller. It deliberately lives
// outside the daemon it attests — the daemon's death must silence the
// heartbeat stream, and a separate prober is the only arrangement where
// a wedged daemon reliably goes silent. A member with an address is
// pinged before each attestation, so a daemon that stops answering its
// own wire port stops being attested even though the beater process is
// healthy: a hung daemon cannot fake liveness.
type Beater struct {
	cfg       BeaterConfig
	client    *wire.Client
	ownClient bool
	seq       atomic.Uint64
	cfgVer    atomic.Uint64
	version   atomic.Value // string
	stop      chan struct{}
	wg        sync.WaitGroup
	once      sync.Once
}

// NewBeater assembles a beater; Start launches the beat loop.
func NewBeater(cfg BeaterConfig) *Beater {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
		if cfg.Timeout > 2*time.Second {
			cfg.Timeout = 2 * time.Second
		}
	}
	b := &Beater{cfg: cfg, client: cfg.Client, stop: make(chan struct{})}
	if b.client == nil {
		b.client = wire.NewClient(cfg.Timeout)
		b.client.Transport = cfg.Transport
		b.client.Dialer = cfg.Dialer
		b.ownClient = true
	}
	b.cfgVer.Store(cfg.Member.ConfigVer)
	b.version.Store(cfg.Member.Version)
	return b
}

// SetConfigVer updates the config version carried in subsequent beats —
// the rollout loop's completion signal.
func (b *Beater) SetConfigVer(v uint64) { b.cfgVer.Store(v) }

// SetVersion updates the release version carried in subsequent beats —
// the rolling-upgrade loop's completion signal.
func (b *Beater) SetVersion(v string) { b.version.Store(v) }

// Start launches the background beat loop.
func (b *Beater) Start() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(b.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-t.C:
				b.BeatOnce()
			}
		}
	}()
}

// BeatOnce probes the member (when it has an address) and broadcasts one
// heartbeat to every controller — leader and followers alike maintain
// independent detector state from the same stream. Success is at least
// one delivery; the error (the first seen) surfaces only when no
// controller accepted the beat, which is normal while the member or the
// whole controller group is down.
func (b *Beater) BeatOnce() error {
	if b.cfg.Member.Addr != "" {
		resp, err := b.client.Call(b.cfg.Member.Addr, wire.NewRequest(wire.MsgPing, nil), b.cfg.Timeout)
		if err != nil {
			return err // member not answering: stay silent
		}
		resp.Release()
	}
	hb := Heartbeat{
		Member: b.cfg.Member,
		Seq:    b.seq.Add(1),
		Unix:   time.Now().UnixNano(),
	}
	hb.ConfigVer = b.cfgVer.Load()
	if v, ok := b.version.Load().(string); ok {
		hb.Version = v
	}
	var firstErr error
	delivered := false
	for _, addr := range b.cfg.Ctrls {
		if err := SendHeartbeat(b.client, addr, hb, b.cfg.Timeout); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		delivered = true
	}
	if delivered {
		return nil
	}
	if firstErr != nil && b.cfg.Logf != nil {
		b.cfg.Logf("ctrl: beat %s: %v", b.cfg.Member.ID, firstErr)
	}
	return firstErr
}

// Close stops the beat loop. Idempotent.
func (b *Beater) Close() {
	b.once.Do(func() {
		close(b.stop)
		b.wg.Wait()
		if b.ownClient {
			b.client.Close()
		}
	})
}
