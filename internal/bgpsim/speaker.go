package bgpsim

import (
	"math/rand"

	"tdat/internal/bgp"
	"tdat/internal/dist"
	"tdat/internal/sim"
)

// AppProfile drives distribution-shaped update generation in place of the
// fixed-interval pacing timer: the application alternates idle gaps drawn
// from IdleGap (microseconds) with bursts of Burst updates. Heavy-tailed
// or bimodal draws reproduce the irregular send patterns of real routers
// (route refresh batches, policy churn) that a fixed timer cannot; the
// waiting periods still surface through OnPacingBlocked, so the ground
// truth labels them application idle exactly like timer pacing.
type AppProfile struct {
	// Seed seeds the profile's private RNG; draws never touch the
	// engine's stream, so adding a profile does not perturb anything else
	// the scenario randomizes.
	Seed int64
	// IdleGap draws the idle time before each burst, in microseconds
	// (values below 1 µs are raised to 1).
	IdleGap dist.Dist
	// Burst draws the number of updates released per burst (values below
	// 1 are raised to 1).
	Burst dist.Dist
}

// SpeakerConfig parameterizes an operational router.
type SpeakerConfig struct {
	AS uint16

	// HoldTime and KeepaliveInterval are the BGP session timers
	// (defaults 180 s / 60 s).
	HoldTime          Micros
	KeepaliveInterval Micros

	// PacingInterval and PacingBudget model the undocumented timer-driven
	// update generation of Houidi et al. [15]: every PacingInterval the
	// router releases up to PacingBudget UPDATE messages per session.
	// PacingInterval == 0 disables pacing (send as fast as TCP accepts).
	PacingInterval Micros
	PacingBudget   int

	// AppProfile, if set, replaces the fixed-interval pacing timer with
	// distribution-driven idle/burst generation (see AppProfile). It uses
	// the same token machinery, so PacingInterval/PacingBudget are ignored
	// while a profile is active.
	AppProfile *AppProfile

	// GroupQueueSlack is the number of updates a peer-group member may run
	// ahead of the slowest member before it is blocked (paper §II-B3).
	// Zero means no peer-group coupling even when sessions share a group.
	GroupQueueSlack int
}

func (c SpeakerConfig) withDefaults() SpeakerConfig {
	if c.HoldTime == 0 {
		c.HoldTime = DefaultHoldTime
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = DefaultKeepaliveInterval
	}
	if c.PacingBudget == 0 {
		c.PacingBudget = 16
	}
	return c
}

// member is one peer-group member's replication cursor.
type member struct {
	session *Session
	next    int // index into the group queue of the next update to replicate
	removed bool
}

// PeerGroup replicates one shared queue of serialized updates to all member
// sessions, clearing entries only when every live member has consumed them —
// the vendor scaling feature whose blocking behaviour the paper captures.
type PeerGroup struct {
	speaker *Speaker
	queue   [][]byte
	members []*member
	slack   int
}

// minNext returns the smallest replication cursor among live members.
func (g *PeerGroup) minNext() int {
	m := len(g.queue)
	for _, mb := range g.members {
		if !mb.removed && mb.next < m {
			m = mb.next
		}
	}
	return m
}

// Enqueue appends serialized updates to the group's shared queue and pumps.
func (g *PeerGroup) Enqueue(updates [][]byte) {
	g.queue = append(g.queue, updates...)
	g.pump()
}

// pump advances every member as far as pacing, TCP buffer space, and the
// slack bound allow.
func (g *PeerGroup) pump() {
	floor := g.minNext()
	for _, mb := range g.members {
		if mb.removed {
			continue
		}
		g.pumpMember(mb, floor)
	}
}

func (g *PeerGroup) pumpMember(mb *member, floor int) {
	s := mb.session
	if s.peer.State() != PeerEstablished {
		return
	}
	for mb.next < len(g.queue) {
		if g.slack > 0 && mb.next-floor >= g.slack {
			s.blockedByGroup = true
			s.noteGroupBlocked(true)
			s.notePacingBlocked(false)
			return
		}
		msg := g.queue[mb.next]
		if !s.takeToken() {
			s.notePacingBlocked(true)
			return
		}
		if s.peer.Endpoint().SendBufAvailable() < len(msg) {
			s.returnToken()
			s.notePacingBlocked(false)
			return
		}
		s.peer.send(msg)
		s.sentUpdates++
		mb.next++
	}
	s.blockedByGroup = false
	s.noteGroupBlocked(false)
	s.notePacingBlocked(false)
}

// remove drops a member (session died) and unblocks the rest.
func (g *PeerGroup) remove(target *member) {
	target.removed = true
	g.pump()
}

// Session is one router→collector BGP session managed by a Speaker.
type Session struct {
	speaker *Speaker
	peer    *Peer
	group   *PeerGroup
	mb      *member

	// Private queue for sessions outside any group.
	queue     [][]byte
	queueNext int

	tokens         int
	pacingTimer    *sim.Timer
	sentUpdates    int
	blockedByGroup bool

	pacingBlockedState bool
	groupBlockedState  bool

	// OnTransferQueued fires when a table transfer has been serialized and
	// enqueued for this session.
	OnTransferQueued func(nUpdates int, nBytes int)
	// OnPacingBlocked fires when the session transitions into (blocked=true)
	// or out of (blocked=false) a state where pending updates wait solely on
	// the pacing timer — the application-level idle gaps of paper §IV-A. A
	// stall on TCP send-buffer space is backpressure, not app idle, and
	// clears this state. Ground-truth hook; never alters pump behavior.
	OnPacingBlocked func(t sim.Micros, blocked bool)
	// OnGroupBlocked fires on peer-group slack-bound stall transitions
	// (paper §II-B3). Ground-truth hook; never alters pump behavior.
	OnGroupBlocked func(t sim.Micros, blocked bool)
}

// notePacingBlocked reports pacing-stall transitions to the truth hook.
func (s *Session) notePacingBlocked(blocked bool) {
	if blocked == s.pacingBlockedState {
		return
	}
	s.pacingBlockedState = blocked
	if s.OnPacingBlocked != nil {
		s.OnPacingBlocked(s.speaker.eng.Now(), blocked)
	}
}

// noteGroupBlocked reports group-stall transitions to the truth hook.
func (s *Session) noteGroupBlocked(blocked bool) {
	if blocked == s.groupBlockedState {
		return
	}
	s.groupBlockedState = blocked
	if s.OnGroupBlocked != nil {
		s.OnGroupBlocked(s.speaker.eng.Now(), blocked)
	}
}

// Peer exposes the session's BGP state machine.
func (s *Session) Peer() *Peer { return s.peer }

// EnqueueTable serializes extra routes onto the session's update stream —
// the massive re-announcements a routing failure triggers on an
// established session (the churn case of paper §VII). Group members share
// their group's queue.
func (s *Session) EnqueueTable(routes []bgp.Route) error {
	updates, err := bgp.PackTable(routes)
	if err != nil {
		return err
	}
	raws := make([][]byte, 0, len(updates))
	for _, u := range updates {
		raw, err := u.Marshal()
		if err != nil {
			return err
		}
		raws = append(raws, raw)
	}
	if s.group != nil {
		s.group.Enqueue(raws)
		return nil
	}
	s.queue = append(s.queue, raws...)
	s.pump()
	return nil
}

// EnqueueWithdrawals serializes withdrawal-only updates onto the session's
// stream — the first thing a failure produces, before any re-announcement.
func (s *Session) EnqueueWithdrawals(prefixes []bgp.Prefix) error {
	updates, err := bgp.PackWithdrawals(prefixes)
	if err != nil {
		return err
	}
	raws := make([][]byte, 0, len(updates))
	for _, u := range updates {
		raw, err := u.Marshal()
		if err != nil {
			return err
		}
		raws = append(raws, raw)
	}
	if s.group != nil {
		s.group.Enqueue(raws)
		return nil
	}
	s.queue = append(s.queue, raws...)
	s.pump()
	return nil
}

// SentUpdates returns how many updates have been written to TCP.
func (s *Session) SentUpdates() int { return s.sentUpdates }

// BlockedByGroup reports whether the last pump stalled on the group slack
// bound.
func (s *Session) BlockedByGroup() bool { return s.blockedByGroup }

// pacingEnabled reports whether update release is token-gated — by the
// fixed-interval timer or by an application profile.
func (s *Session) pacingEnabled() bool {
	return s.speaker.cfg.PacingInterval != 0 || s.speaker.cfg.AppProfile != nil
}

// takeToken consumes one pacing token; with pacing disabled it always
// succeeds.
func (s *Session) takeToken() bool {
	if !s.pacingEnabled() {
		return true
	}
	if s.tokens <= 0 {
		return false
	}
	s.tokens--
	return true
}

func (s *Session) returnToken() {
	if s.pacingEnabled() {
		s.tokens++
	}
}

func (s *Session) startPacing() {
	if ap := s.speaker.cfg.AppProfile; ap != nil {
		s.startAppProfile(ap)
		return
	}
	if s.speaker.cfg.PacingInterval == 0 {
		return
	}
	s.tokens = s.speaker.cfg.PacingBudget
	var tick func()
	tick = func() {
		if s.peer.State() != PeerEstablished {
			return
		}
		s.tokens = s.speaker.cfg.PacingBudget
		s.pump()
		s.pacingTimer = s.speaker.eng.After(s.speaker.cfg.PacingInterval, tick)
	}
	s.pacingTimer = s.speaker.eng.After(s.speaker.cfg.PacingInterval, tick)
}

// startAppProfile runs the idle/burst loop: sleep a drawn gap, grant a
// drawn burst of tokens, pump, repeat. Tokens are replaced (not
// accumulated) per burst, matching the fixed-interval refill semantics.
func (s *Session) startAppProfile(ap *AppProfile) {
	rnd := rand.New(rand.NewSource(ap.Seed))
	gap := func() Micros {
		g := Micros(ap.IdleGap.Sample(rnd))
		if g < 1 {
			g = 1
		}
		return g
	}
	var tick func()
	tick = func() {
		if s.peer.State() != PeerEstablished {
			return
		}
		n := int(ap.Burst.Sample(rnd))
		if n < 1 {
			n = 1
		}
		s.tokens = n
		s.pump()
		s.pacingTimer = s.speaker.eng.After(gap(), tick)
	}
	s.tokens = 0
	s.pacingTimer = s.speaker.eng.After(gap(), tick)
}

// pump advances this session's update stream.
func (s *Session) pump() {
	if s.group != nil {
		s.group.pump()
		return
	}
	if s.peer.State() != PeerEstablished {
		return
	}
	for s.queueNext < len(s.queue) {
		msg := s.queue[s.queueNext]
		if !s.takeToken() {
			s.notePacingBlocked(true)
			return
		}
		if s.peer.Endpoint().SendBufAvailable() < len(msg) {
			s.returnToken()
			s.notePacingBlocked(false)
			return
		}
		s.peer.send(msg)
		s.sentUpdates++
		s.queueNext++
	}
	s.notePacingBlocked(false)
}

// Speaker is an operational BGP router serving table transfers to one or
// more collectors, optionally coupling sessions through a peer group.
type Speaker struct {
	eng      *sim.Engine
	cfg      SpeakerConfig
	sessions []*Session
	groups   []*PeerGroup

	// Table is the routing table streamed on session establishment.
	Table []bgp.Route
}

// NewSpeaker creates a router.
func NewSpeaker(eng *sim.Engine, cfg SpeakerConfig) *Speaker {
	return &Speaker{eng: eng, cfg: cfg.withDefaults()}
}

// NewPeerGroup creates a peer group on this speaker.
func (r *Speaker) NewPeerGroup() *PeerGroup {
	g := &PeerGroup{speaker: r, slack: r.cfg.GroupQueueSlack}
	r.groups = append(r.groups, g)
	return g
}

// AddSession attaches a BGP session running over peer, optionally inside
// group (nil for a standalone session). The session begins its table
// transfer when BGP establishes.
func (r *Speaker) AddSession(peer *Peer, group *PeerGroup) *Session {
	s := &Session{speaker: r, peer: peer, group: group}
	peer.SetTimers(r.cfg.HoldTime, r.cfg.KeepaliveInterval)
	if group != nil {
		s.mb = &member{session: s}
		group.members = append(group.members, s.mb)
	}
	r.sessions = append(r.sessions, s)

	peer.OnEstablished = func() {
		r.startTransfer(s)
		s.startPacing()
	}
	peer.Endpoint().OnSendSpace = func() { s.pump() }
	prevDown := peer.OnDown
	peer.OnDown = func(reason string) {
		s.pacingTimer.Stop()
		if s.group != nil && s.mb != nil {
			s.group.remove(s.mb)
		}
		if prevDown != nil {
			prevDown(reason)
		}
	}
	return s
}

// startTransfer serializes the table and enqueues it for s.
func (r *Speaker) startTransfer(s *Session) {
	updates, err := bgp.PackTable(r.Table)
	if err != nil {
		s.peer.Down("table serialization failed")
		return
	}
	raws := make([][]byte, 0, len(updates))
	total := 0
	for _, u := range updates {
		raw, err := u.Marshal()
		if err != nil {
			s.peer.Down("update serialization failed")
			return
		}
		raws = append(raws, raw)
		total += len(raw)
	}
	if s.OnTransferQueued != nil {
		s.OnTransferQueued(len(raws), total)
	}
	if s.group != nil {
		// The group queue is shared; members joining later replay from their
		// own cursor, so enqueue only once per group transfer generation.
		if s.mb.next == 0 && len(s.group.queue) == 0 {
			s.group.Enqueue(raws)
		} else {
			s.group.pump()
		}
		return
	}
	s.queue = append(s.queue, raws...)
	s.pump()
}
