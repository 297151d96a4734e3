package bgpsim

import (
	"tdat/internal/bgp"
	"tdat/internal/sim"
)

// CollectorConfig parameterizes a collector host.
type CollectorConfig struct {
	// ProcessInterval is how often the BGP process is scheduled to drain
	// its TCP sockets (default 20 ms).
	ProcessInterval Micros
	// TotalRate is the host's aggregate processing rate in bytes/sec shared
	// by all sessions; 0 means unlimited (reads keep up with the network).
	// This is the "BGP receiver app" bottleneck: a slow rate closes the
	// advertised windows of every connection feeding the host.
	TotalRate int64
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.ProcessInterval == 0 {
		c.ProcessInterval = 20_000
	}
	return c
}

// ArchiveEntry is one BGP message as the collector application saw it: the
// timestamp is the processing time (what lands in MRT), not the wire
// arrival.
type ArchiveEntry struct {
	Time   Micros
	PeerAS uint16
	Raw    []byte
}

// CollectorHost models one collector box running sessions to many routers
// under a shared processing budget.
type CollectorHost struct {
	eng      *sim.Engine
	cfg      CollectorConfig
	sessions []*CollectorSession
	ticking  bool
	rr       int // round-robin cursor over sessions
}

// NewCollectorHost creates a collector host.
func NewCollectorHost(eng *sim.Engine, cfg CollectorConfig) *CollectorHost {
	return &CollectorHost{eng: eng, cfg: cfg.withDefaults()}
}

// CollectorSession is one router-facing session on the host.
type CollectorSession struct {
	host    *CollectorHost
	peer    *Peer
	archive []ArchiveEntry
	peerAS  uint16

	// OnUpdate fires for each archived UPDATE.
	OnUpdate func(e ArchiveEntry)
}

// Peer exposes the session state machine.
func (s *CollectorSession) Peer() *Peer { return s.peer }

// Archive returns the messages processed so far.
func (s *CollectorSession) Archive() []ArchiveEntry { return s.archive }

// AddSession attaches a session over peer. peerAS is used for MRT metadata.
func (h *CollectorHost) AddSession(peer *Peer, peerAS uint16) *CollectorSession {
	s := &CollectorSession{host: h, peer: peer, peerAS: peerAS}
	h.sessions = append(h.sessions, s)
	peer.OnMessage = func(m bgp.Message, raw []byte) {
		if _, ok := m.(*bgp.Update); !ok {
			return
		}
		e := ArchiveEntry{Time: h.eng.Now(), PeerAS: peerAS, Raw: append([]byte(nil), raw...)}
		s.archive = append(s.archive, e)
		if s.OnUpdate != nil {
			s.OnUpdate(e)
		}
	}
	if h.cfg.TotalRate == 0 {
		// Unlimited processing: drain the socket as data lands.
		peer.Endpoint().OnReadable = func() {
			peer.Feed(peer.Endpoint().Read(peer.Endpoint().ReadableLen()))
		}
	} else {
		h.startTicking()
	}
	return s
}

// startTicking begins the shared processing schedule.
func (h *CollectorHost) startTicking() {
	if h.ticking {
		return
	}
	h.ticking = true
	var tick func()
	tick = func() {
		h.processBudget()
		h.eng.After(h.cfg.ProcessInterval, tick)
	}
	h.eng.After(h.cfg.ProcessInterval, tick)
}

// processBudget distributes one interval's worth of read budget round-robin
// across sessions with pending data.
func (h *CollectorHost) processBudget() {
	budget := int(h.cfg.TotalRate * int64(h.cfg.ProcessInterval) / 1_000_000)
	if budget <= 0 {
		budget = 1
	}
	n := len(h.sessions)
	if n == 0 {
		return
	}
	// Two sweeps: give each live session an equal share, then spend any
	// leftover on whoever still has data.
	share := budget / n
	if share == 0 {
		share = 1
	}
	remaining := budget
	for i := 0; i < n && remaining > 0; i++ {
		s := h.sessions[(h.rr+i)%n]
		remaining -= s.consume(min(share, remaining))
	}
	for i := 0; i < n && remaining > 0; i++ {
		s := h.sessions[(h.rr+i)%n]
		remaining -= s.consume(remaining)
	}
	h.rr = (h.rr + 1) % n
}

// consume reads up to n bytes from the session's socket into the BGP
// process and returns how many were actually consumed.
func (s *CollectorSession) consume(n int) int {
	ep := s.peer.Endpoint()
	if n <= 0 || ep.ReadableLen() == 0 {
		return 0
	}
	data := ep.Read(n)
	s.peer.Feed(data)
	return len(data)
}
