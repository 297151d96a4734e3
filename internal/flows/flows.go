// Package flows extracts TCP connections from timestamped packet captures
// and derives the per-connection information T-DAT needs — the role
// tcptrace plays in the paper's pipeline (§III-B): connection profiles
// (start/end, RTT, MSS, maximum advertised window) and per-packet labels
// (retransmission, out-of-sequence gap fill, reordering), plus the
// upstream/downstream loss classification of §II-B2.
package flows

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"

	"tdat/internal/bytepack"
	"tdat/internal/obs"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/timerange"
)

// Micros aliases the trace time unit.
type Micros = timerange.Micros

// TimedPacket is one captured packet with its sniffer timestamp.
type TimedPacket struct {
	Time Micros
	Pkt  *packet.Packet
}

// Endpoint identifies one side of a connection.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

// String implements fmt.Stringer.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Key identifies a connection by its two endpoints in a canonical order.
type Key struct {
	A, B Endpoint
}

// canonicalKey orders the endpoints deterministically.
func canonicalKey(src, dst Endpoint) Key {
	if src.Addr.Compare(dst.Addr) < 0 ||
		(src.Addr == dst.Addr && src.Port < dst.Port) {
		return Key{A: src, B: dst}
	}
	return Key{A: dst, B: src}
}

// DataKind labels a data-direction packet.
type DataKind int

// Data packet classifications.
const (
	// DataNew advances the stream with bytes never captured before.
	DataNew DataKind = iota
	// DataRetransmit carries bytes the sniffer already saw: the original
	// reached the sniffer, so the loss (or its ACK's loss) happened
	// downstream of it (paper Fig 7).
	DataRetransmit
	// DataGapFill carries bytes never captured that sit below the highest
	// sequence seen: the original was lost upstream of the sniffer
	// (paper Fig 8).
	DataGapFill
	// DataReordered is a gap fill attributable to in-network reordering
	// rather than loss (filtered per Jaiswal et al. [17]).
	DataReordered
)

// String implements fmt.Stringer.
func (k DataKind) String() string {
	switch k {
	case DataNew:
		return "new"
	case DataRetransmit:
		return "retransmit"
	case DataGapFill:
		return "gap-fill"
	case DataReordered:
		return "reordered"
	default:
		return "unknown"
	}
}

// DataEvent is one sender→receiver payload (or SYN/FIN) packet.
type DataEvent struct {
	Time Micros
	// Seq and SeqEnd are payload offsets relative to the sender's ISN+1.
	Seq, SeqEnd int64
	Len         int
	IPID        uint16
	Kind        DataKind
	// Ack and Window echo the piggybacked acknowledgment state.
	Ack    int64
	Window int
	// Payload is the demuxer's copy of the captured bytes (nil for
	// length-only traces); reassembly uses it to reconstruct the BGP
	// stream. It is a capped view into a block shared with other packets
	// of the capture, other connections' included: appending to it
	// reallocates, and holding it keeps the whole block alive. core's
	// capture-level entries recycle the blocks: an analyze callback may
	// read a payload only until it returns, and their reports carry none.
	Payload []byte
}

// SenderPureAck records a payloadless sender→receiver packet: invisible to
// the byte stream, but a consumer of the sender's IP ID sequence.
type SenderPureAck struct {
	Time Micros
	IPID uint16
}

// AckEvent is one receiver→sender packet (pure ACK or receiver data).
type AckEvent struct {
	Time Micros
	// Ack is the cumulative acknowledgment as a sender-stream offset.
	Ack    int64
	Window int
	// Dup marks a duplicate ACK (same ack, no payload, no window change).
	Dup bool
	// PayloadLen is the receiver's own payload (keepalives etc.).
	PayloadLen int
}

// Profile summarizes connection-level parameters (the tcptrace output the
// analyzer consumes).
type Profile struct {
	Start Micros // first packet (SYN) time
	End   Micros // last packet time
	// RTT is the estimated sender-perceived round-trip time.
	RTT Micros
	// MSS is from the SYN options, or the largest observed segment.
	MSS int
	// MaxAdvWindow is the receiver's largest advertised window.
	MaxAdvWindow int
	// SynTime/SynAckTime/AckTime record the handshake at the sniffer.
	SynTime, SynAckTime, HandshakeAckTime Micros
	// Initiator reports whether the data sender also sent the first SYN.
	InitiatorIsSender bool

	TotalDataBytes   int64
	TotalDataPackets int
	RetransmitCount  int
	// SpuriousRetxCount counts retransmissions of bytes the receiver had
	// already acknowledged — copies that prove no downstream loss.
	SpuriousRetxCount int
	// SilentLossRanges counts long silences whose bracketing IP IDs show
	// the sender transmitting into an upstream black hole (see
	// scanSilentLoss).
	SilentLossRanges int
	GapFillCount     int
	ReorderCount     int
}

// Connection is one extracted TCP connection oriented so that Sender is the
// side contributing the bulk of the payload (the operational router in the
// paper's setting).
type Connection struct {
	Sender   Endpoint
	Receiver Endpoint
	Profile  Profile

	// Data are the Sender→Receiver packets in time order.
	Data []DataEvent
	// Acks are the Receiver→Sender packets in time order.
	Acks []AckEvent
	// SenderPureAcks are the sender's payloadless packets (acknowledgments
	// of receiver keepalives, window probes answered without data). They
	// carry no bytes but consume sender IP IDs, so the silent-loss scan
	// needs them to tell "idle sender" from "sender whose packets all died
	// upstream of the sniffer".
	SenderPureAcks []SenderPureAck

	// UpstreamLoss and DownstreamLoss are the recovery periods attributed
	// to losses before and after the sniffer respectively (§II-B2).
	UpstreamLoss   *timerange.Set
	DownstreamLoss *timerange.Set

	// senderISN anchors relative sequence numbers.
	senderISN   uint32
	receiverISN uint32
}

// Span returns the connection's observation window.
func (c *Connection) Span() timerange.Range {
	return timerange.Range{Start: c.Profile.Start, End: c.Profile.End + 1}
}

// pktTable is the columnar (struct-of-arrays) per-connection packet store.
// One column per field the analyzer reads keeps the accumulation hot path
// free of per-packet allocations and pointer chasing: appending a packet
// touches a handful of flat arrays instead of allocating a packet struct,
// and analysis scans run down dense columns. The pay column holds the
// demuxer's copies of the payloads (see Demuxer.Add), so the table retains
// nothing from the caller's (reused) decode buffer — the ownership boundary
// that makes zero-copy ingest (pcapio.ReadInto + packet.DecodeInto) safe
// upstream.
type pktTable struct {
	times   []Micros
	seqs    []uint32 // TCP sequence numbers (wire values)
	acks    []uint32 // TCP acknowledgment numbers (wire values)
	ipids   []uint16
	windows []uint16
	flags   []uint8
	dirs    []uint8  // 1 when the packet's source is the canonical key's A side
	pay     [][]byte // payload copies in the demuxer's blocks (nil when empty)
	mss     []uint32 // SYN MSS option, 1<<16|value when present, 0 otherwise
}

func (t *pktTable) n() int { return len(t.times) }

// add appends one packet whose payload the caller has already copied.
func (t *pktTable) add(tm Micros, p *packet.Packet, pay []byte, fromA bool) {
	t.times = append(t.times, tm)
	t.seqs = append(t.seqs, p.TCP.Seq)
	t.acks = append(t.acks, p.TCP.Ack)
	t.ipids = append(t.ipids, p.IP.ID)
	t.windows = append(t.windows, p.TCP.Window)
	t.flags = append(t.flags, p.TCP.Flags)
	var dir uint8
	if fromA {
		dir = 1
	}
	t.dirs = append(t.dirs, dir)
	t.pay = append(t.pay, pay)
	var m uint32
	if p.TCP.HasFlag(packet.FlagSYN) {
		if v, ok := p.TCP.MSS(); ok {
			m = 1<<16 | uint32(v)
		}
	}
	t.mss = append(t.mss, m)
}

// sortByTime stably reorders every column by timestamp — the rare
// disordered-capture path. The payload views move with their rows.
func (t *pktTable) sortByTime() {
	perm := make([]int, t.n())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return t.times[perm[i]] < t.times[perm[j]] })
	permute(perm, t.times)
	permute(perm, t.seqs)
	permute(perm, t.acks)
	permute(perm, t.ipids)
	permute(perm, t.windows)
	permute(perm, t.flags)
	permute(perm, t.dirs)
	permute(perm, t.pay)
	permute(perm, t.mss)
}

// permute rearranges s so that s[i] = old s[perm[i]].
func permute[T any](perm []int, s []T) {
	tmp := make([]T, len(s))
	for i, p := range perm {
		tmp[i] = s[p]
	}
	copy(s, tmp)
}

// tablePool recycles pktTable column storage between connections. The
// payload bytes are not the table's to recycle — emitted DataEvents alias
// them — so release clears the pay column's views before pooling, and a
// pooled table pins no block.
var tablePool = sync.Pool{New: func() any { return new(pktTable) }}

// newTable returns an empty table with whatever column capacity a previous
// connection grew.
func newTable() *pktTable {
	t := tablePool.Get().(*pktTable)
	t.times = t.times[:0]
	t.seqs = t.seqs[:0]
	t.acks = t.acks[:0]
	t.ipids = t.ipids[:0]
	t.windows = t.windows[:0]
	t.flags = t.flags[:0]
	t.dirs = t.dirs[:0]
	t.pay = t.pay[:0]
	t.mss = t.mss[:0]
	return t
}

// release returns a table's column storage to the pool.
func release(t *pktTable) {
	clear(t.pay)
	tablePool.Put(t)
}

// rawConn accumulates packets per canonical key before orientation.
type rawConn struct {
	key Key
	tbl *pktTable
	// payload bytes seen from each endpoint
	bytesFromA, bytesFromB int64
	// synTimeA/B record each endpoint's first SYN time; synISNA/B remember
	// the SYN sequence numbers so a fresh SYN (new ISN) on a reused tuple
	// can be told apart from a retransmitted one.
	synTimeA, synTimeB Micros
	hasSynA, hasSynB   bool
	synISNA, synISNB   uint32
	hasISNA, hasISNB   bool
	sawPayload         bool
	// established marks that a non-SYN packet was captured: the tuple is
	// past connection initiation, so a later fresh SYN is a reused tuple
	// even when the incarnation's own handshake (and any payload) was
	// never captured — the truncated/no-FIN predecessor case.
	established bool
	// idx is the creation index (order of first packet); done marks a
	// connection the demuxer has already emitted.
	idx  int
	done bool
}

// Extract groups packets into connections and analyzes each with default
// options. Connections are returned in order of first packet. Packets are
// grouped in time order: a time-disordered slice is sorted (stably) first.
func Extract(pkts []TimedPacket) []*Connection {
	if !slices.IsSortedFunc(pkts, byTime) {
		pkts = slices.Clone(pkts)
		slices.SortStableFunc(pkts, byTime)
	}
	byIdx := map[int]*Connection{}
	d := NewDemuxer(Options{}, func(idx int, c *Connection) { byIdx[idx] = c })
	for _, tp := range pkts {
		d.Add(tp)
	}
	total := d.Finish()
	out := make([]*Connection, 0, len(byIdx))
	for i := 0; i < total; i++ {
		if c := byIdx[i]; c != nil {
			out = append(out, c)
		}
	}
	return out
}

// byTime orders packets by capture time.
func byTime(a, b TimedPacket) int { return cmp.Compare(a.Time, b.Time) }

// Demuxer incrementally groups a packet stream into TCP connections and
// emits each connection as soon as it is known to be complete, so that
// downstream analysis can overlap ingest of the rest of the trace. A
// connection completes early when a fresh SYN (new ISN) reuses its 4-tuple
// — the ISP_A-1 reset-storm pattern, where one capture holds a sequence of
// table-transfer attempts on the same port pair; everything still open
// completes at Finish.
//
// Packets should be fed in capture order (time order, as a sniffer writes
// them). Input that turns out to be time-disordered is tolerated: each
// connection's packets are re-sorted before analysis, though connection
// grouping then follows arrival order rather than time order — the slice
// entry points (Extract, core's AnalyzePackets) pre-sort, so they are
// unaffected.
//
// emit runs in the caller's goroutine (inside Add or Finish) and receives
// the connection's creation index — the order of its first packet — which
// callers use to restore deterministic output order after parallel
// analysis. Finish returns the total creation count.
type Demuxer struct {
	opts     Options
	emit     func(index int, c *Connection)
	index    map[Key]*rawConn
	order    []*rawConn
	lastTime Micros
	disorder bool
	finished bool

	// pack holds the copy of every payload Add keeps, for all connections
	// (see UsePacker).
	pack *bytepack.Packer

	// stats feeds the degradation report (see Stats).
	stats DemuxStats
	// open counts tracked (un-emitted) connections for the MaxTracked cap;
	// evictScan remembers where the oldest-open scan left off so repeated
	// evictions stay amortized O(1).
	open      int
	evictScan int

	// metrics (nil handles when opts.Obs is nil — every update is a no-op)
	packetsC *obs.Counter
	openedC  *obs.Counter
	earlyC   *obs.Counter
	evictedC *obs.Counter
	resumedC *obs.Counter
	regressC *obs.Counter
}

// DemuxStats summarizes one demux run for the degradation report. On a
// clean capture everything except Packets, Opened, and EarlyEmits is zero.
type DemuxStats struct {
	// Packets is the number of packets routed.
	Packets int64
	// Opened is the number of raw connections created.
	Opened int
	// EarlyEmits counts connections completed before Finish (tuple reuse).
	EarlyEmits int
	// Evicted counts connections force-completed by the MaxTracked cap.
	Evicted int
	// Resumed counts connections restarted because packets kept arriving
	// for an already-evicted tuple; their reports cover only the tail.
	Resumed int
	// TimestampRegressions counts packets timestamped before their
	// predecessor — sniffer clock step-backs.
	TimestampRegressions int64
}

// NewDemuxer creates a Demuxer that emits completed connections via emit.
func NewDemuxer(opts Options, emit func(index int, c *Connection)) *Demuxer {
	d := &Demuxer{
		opts:  opts,
		emit:  emit,
		index: map[Key]*rawConn{},
		pack:  new(bytepack.Packer),
	}
	if o := opts.Obs; o != nil {
		d.packetsC = o.Reg.Counter("tdat_demux_packets_total")
		d.openedC = o.Reg.Counter("tdat_demux_conns_opened_total")
		d.earlyC = o.Reg.Counter("tdat_demux_conns_early_total")
		d.evictedC = o.Reg.Counter("tdat_demux_conns_evicted_total")
		d.resumedC = o.Reg.Counter("tdat_demux_conns_resumed_total")
		d.regressC = o.Reg.Counter("tdat_demux_ts_regressions_total")
	}
	return d
}

// UsePacker makes d copy payloads into p's blocks in place of its own, so
// that a caller who Resets p once every emitted connection is done with
// its payloads has the next capture refill the same blocks. Call it before
// the first Add.
func (d *Demuxer) UsePacker(p *bytepack.Packer) { d.pack = p }

// Stats returns the run's demux statistics (valid any time; final after
// Finish).
func (d *Demuxer) Stats() DemuxStats { return d.stats }

// newRawConn registers a fresh raw connection under key k, evicting the
// oldest tracked connection first when the MaxTracked cap is reached.
func (d *Demuxer) newRawConn(k Key) *rawConn {
	if max := d.opts.MaxTracked; max > 0 && d.open >= max {
		d.evictOldest()
	}
	rc := &rawConn{key: k, tbl: newTable(), idx: len(d.order)}
	d.index[k] = rc
	d.order = append(d.order, rc)
	d.open++
	d.stats.Opened++
	d.openedC.Inc()
	if o := d.opts.Obs; o != nil {
		o.Progress.ConnSeen()
	}
	return rc
}

// evictOldest force-completes the oldest still-open connection so tracked
// state stays bounded on adversarial traces (a SYN flood of distinct
// tuples must not OOM the analyzer). The evicted connection's report
// covers what was captured so far; packets arriving later for its tuple
// start a fresh partial connection (counted as Resumed).
func (d *Demuxer) evictOldest() {
	for d.evictScan < len(d.order) {
		rc := d.order[d.evictScan]
		if !rc.done {
			d.stats.Evicted++
			d.evictedC.Inc()
			d.complete(rc)
			return
		}
		d.evictScan++
	}
}

// Add routes one packet to its connection, emitting any connection the
// packet proves complete. The packet's header fields land in per-connection
// columnar storage and its payload is copied once, into blocks the Demuxer
// shares across connections (bytepack), before Add returns, so callers may
// reuse tp.Pkt and the buffers it aliases — the contract the zero-copy
// ingest path (pcapio.ReadInto + packet.DecodeInto) relies on.
func (d *Demuxer) Add(tp TimedPacket) {
	tm, pkt := tp.Time, tp.Pkt
	if tm < d.lastTime {
		d.disorder = true
		d.stats.TimestampRegressions++
		d.regressC.Inc()
	}
	d.lastTime = tm
	d.packetsC.Inc()
	d.stats.Packets++

	src := Endpoint{Addr: pkt.IP.Src, Port: pkt.TCP.SrcPort}
	dst := Endpoint{Addr: pkt.IP.Dst, Port: pkt.TCP.DstPort}
	k := canonicalKey(src, dst)
	fromA := src == k.A
	rc, ok := d.index[k]
	if !ok {
		rc = d.newRawConn(k)
	} else if rc.done {
		// The tuple's tracked connection was evicted under the MaxTracked
		// cap but traffic keeps coming: start a fresh partial connection
		// rather than silently dropping the tail.
		rc = d.newRawConn(k)
		d.stats.Resumed++
		d.resumedC.Inc()
	}
	isSyn := pkt.TCP.HasFlag(packet.FlagSYN)
	freshSyn := isSyn && !pkt.TCP.HasFlag(packet.FlagACK)
	// Port reuse across session resets (the ISP_A-1 reset storm): a
	// fresh SYN with a NEW initial sequence number on a tuple that
	// already carried traffic starts a new connection; a SYN repeating
	// the same ISN is just a retransmission of the old handshake. The
	// old incarnation needs no FIN/RST boundary: payload, a recorded
	// SYN, or any established (non-SYN) traffic proves it was a distinct
	// connection — the last case covers a predecessor whose capture was
	// truncated before (or after) its handshake.
	if freshSyn && rc.tbl.n() > 0 {
		isn, seen := rc.synISN(fromA)
		if !seen || isn != pkt.TCP.Seq {
			if seen || rc.sawPayload || rc.established {
				d.complete(rc) // the old incarnation can get no more packets
				rc = d.newRawConn(k)
			}
		}
	}
	if !isSyn {
		rc.established = true
	}
	if freshSyn {
		if fromA {
			if !rc.hasISNA {
				rc.synISNA, rc.hasISNA = pkt.TCP.Seq, true
			}
			if !rc.hasSynA {
				rc.synTimeA, rc.hasSynA = tm, true
			}
		} else {
			if !rc.hasISNB {
				rc.synISNB, rc.hasISNB = pkt.TCP.Seq, true
			}
			if !rc.hasSynB {
				rc.synTimeB, rc.hasSynB = tm, true
			}
		}
	}
	rc.tbl.add(tm, pkt, d.pack.Copy(pkt.Payload), fromA)
	if n := int64(len(pkt.Payload)); n > 0 {
		rc.sawPayload = true
		if fromA {
			rc.bytesFromA += n
		} else {
			rc.bytesFromB += n
		}
	}
}

// synISN returns the recorded SYN sequence number for the given side.
func (rc *rawConn) synISN(fromA bool) (uint32, bool) {
	if fromA {
		return rc.synISNA, rc.hasISNA
	}
	return rc.synISNB, rc.hasISNB
}

// complete analyzes one raw connection and emits the result.
func (d *Demuxer) complete(rc *rawConn) {
	if rc.done {
		return
	}
	rc.done = true
	d.open--
	if !d.finished {
		d.stats.EarlyEmits++
		d.earlyC.Inc()
	}
	if d.disorder {
		rc.tbl.sortByTime()
	}
	if c := analyze(rc, d.opts); c != nil {
		d.emit(rc.idx, c)
	}
	release(rc.tbl) // events alias only the payload blocks; recycle the columns
	rc.tbl = nil
}

// Finish completes every still-open connection in creation order and
// returns the total number of raw connections created. The Demuxer must
// not be used afterwards.
func (d *Demuxer) Finish() int {
	d.finished = true
	for _, rc := range d.order {
		d.complete(rc)
	}
	return len(d.order)
}

// FromPcap decodes pcap records and extracts connections. Undecodable
// records are counted and skipped (tcpdump drop artifacts). The packets
// are decoded in place, as views of the records' bytes; Extract copies
// what it keeps.
func FromPcap(records []pcapio.Record) ([]*Connection, int) {
	decoded := make([]packet.Packet, len(records))
	pkts := make([]TimedPacket, 0, len(records))
	for i, r := range records {
		if err := packet.DecodeInto(r.Data, &decoded[i]); err != nil {
			continue
		}
		pkts = append(pkts, TimedPacket{Time: r.TimeMicros, Pkt: &decoded[i]})
	}
	return Extract(pkts), len(records) - len(pkts)
}

// analyze orients a raw connection and derives events, labels, and profile.
func analyze(rc *rawConn, opts Options) *Connection {
	t := rc.tbl
	if t.n() == 0 {
		return nil
	}
	// Sender = side with most payload; tie broken toward the SYN initiator
	// (the earlier SYN when both sides sent one, A on an exact tie), then
	// endpoint order.
	sender := rc.key.A
	switch {
	case rc.bytesFromB > rc.bytesFromA:
		sender = rc.key.B
	case rc.bytesFromB == rc.bytesFromA:
		if rc.hasSynB && (!rc.hasSynA || rc.synTimeB < rc.synTimeA) {
			sender = rc.key.B
		}
	}
	senderIsA := sender == rc.key.A
	receiver := rc.key.A
	if senderIsA {
		receiver = rc.key.B
	}

	c := &Connection{Sender: sender, Receiver: receiver}
	c.Profile.Start = t.times[0]
	c.Profile.End = t.times[t.n()-1]
	switch {
	case senderIsA && rc.hasSynA:
		c.Profile.InitiatorIsSender = true
		c.Profile.SynTime = rc.synTimeA
	case !senderIsA && rc.hasSynB:
		c.Profile.InitiatorIsSender = true
		c.Profile.SynTime = rc.synTimeB
	case rc.hasSynA:
		c.Profile.SynTime = rc.synTimeA
	case rc.hasSynB:
		c.Profile.SynTime = rc.synTimeB
	}

	extractISNs(c, t, senderIsA)
	buildEvents(c, t, senderIsA)
	classifyLosses(c, opts)
	estimateRTT(c)
	return c
}

// extractISNs finds initial sequence numbers and handshake timestamps.
func extractISNs(c *Connection, t *pktTable, senderIsA bool) {
	var haveSenderISN, haveReceiverISN bool
	for i := 0; i < t.n(); i++ {
		fromSender := (t.dirs[i] == 1) == senderIsA
		isSyn := t.flags[i]&packet.FlagSYN != 0
		switch {
		case isSyn && fromSender && !haveSenderISN:
			c.senderISN = t.seqs[i]
			haveSenderISN = true
			if m := t.mss[i]; m != 0 {
				c.Profile.MSS = int(m & 0xFFFF)
			}
		case isSyn && !fromSender && !haveReceiverISN:
			c.receiverISN = t.seqs[i]
			haveReceiverISN = true
			if t.flags[i]&packet.FlagACK != 0 {
				c.Profile.SynAckTime = t.times[i]
			}
			if m := t.mss[i]; m != 0 && (c.Profile.MSS == 0 || int(m&0xFFFF) < c.Profile.MSS) {
				c.Profile.MSS = int(m & 0xFFFF)
			}
		case !isSyn && haveSenderISN && haveReceiverISN && c.Profile.HandshakeAckTime == 0 &&
			fromSender && t.flags[i]&packet.FlagACK != 0 && len(t.pay[i]) == 0:
			c.Profile.HandshakeAckTime = t.times[i]
		}
	}
	if !haveSenderISN {
		// Mid-stream capture: anchor on the first data packet.
		for i := 0; i < t.n(); i++ {
			if (t.dirs[i] == 1) == senderIsA {
				c.senderISN = t.seqs[i] - 1
				break
			}
		}
	}
	if !haveReceiverISN {
		for i := 0; i < t.n(); i++ {
			if (t.dirs[i] == 1) != senderIsA {
				c.receiverISN = t.seqs[i] - 1
				break
			}
		}
	}
}

// relSeq converts a wire sequence number to a payload offset past isn+1.
func relSeq(seq, isn uint32) int64 { return int64(int32(seq - isn - 1)) }

// buildEvents splits packets into Data and Ack event streams. Event counts
// are known exactly from the direction/payload columns, so both slices are
// allocated once at final size.
func buildEvents(c *Connection, t *pktTable, senderIsA bool) {
	nData, nAcks := 0, 0
	for i := 0; i < t.n(); i++ {
		if (t.dirs[i] == 1) == senderIsA {
			if len(t.pay[i]) > 0 {
				nData++
			}
		} else {
			nAcks++
		}
	}
	if nData > 0 {
		c.Data = make([]DataEvent, 0, nData)
	}
	if nAcks > 0 {
		c.Acks = make([]AckEvent, 0, nAcks)
	}
	for i := 0; i < t.n(); i++ {
		if (t.dirs[i] == 1) == senderIsA {
			if len(t.pay[i]) == 0 {
				// Pure ACKs from the sender are not data events, but their
				// IP IDs anchor the silent-loss continuity scan.
				c.SenderPureAcks = append(c.SenderPureAcks,
					SenderPureAck{Time: t.times[i], IPID: t.ipids[i]})
				continue
			}
			off := relSeq(t.seqs[i], c.senderISN)
			ev := DataEvent{
				Time:    t.times[i],
				Seq:     off,
				SeqEnd:  off + int64(len(t.pay[i])),
				Len:     len(t.pay[i]),
				IPID:    t.ipids[i],
				Ack:     relSeq(t.acks[i], c.receiverISN),
				Window:  int(t.windows[i]),
				Payload: t.pay[i],
			}
			c.Data = append(c.Data, ev)
			c.Profile.TotalDataPackets++
			c.Profile.TotalDataBytes += int64(ev.Len)
		} else {
			ack := relSeq(t.acks[i], c.senderISN)
			ev := AckEvent{
				Time:       t.times[i],
				Ack:        ack,
				Window:     int(t.windows[i]),
				PayloadLen: len(t.pay[i]),
			}
			if n := len(c.Acks); n > 0 {
				prev := c.Acks[n-1]
				ev.Dup = ev.PayloadLen == 0 && prev.Ack == ack && prev.Window == ev.Window &&
					t.flags[i]&(packet.FlagSYN|packet.FlagFIN) == 0
			}
			c.Acks = append(c.Acks, ev)
			if ev.Window > c.Profile.MaxAdvWindow {
				c.Profile.MaxAdvWindow = ev.Window
			}
		}
	}
	if c.Profile.MSS == 0 {
		for _, d := range c.Data {
			if d.Len > c.Profile.MSS {
				c.Profile.MSS = d.Len
			}
		}
	}
}

// estimateRTT derives the sender-perceived RTT. At a receiver-side sniffer
// the SYNACK→handshake-ACK spacing covers one full round trip; when the
// handshake is missing we fall back to the median delay between an ACK and
// the next new data it released.
func estimateRTT(c *Connection) {
	if c.Profile.SynAckTime > 0 && c.Profile.HandshakeAckTime > c.Profile.SynAckTime {
		c.Profile.RTT = c.Profile.HandshakeAckTime - c.Profile.SynAckTime
		return
	}
	// Fallback: ack → next new-data arrival.
	var samples []Micros
	di := 0
	for _, a := range c.Acks {
		if a.Dup {
			continue
		}
		for di < len(c.Data) && c.Data[di].Time <= a.Time {
			di++
		}
		for j := di; j < len(c.Data) && j < di+4; j++ {
			if c.Data[j].Kind == DataNew && c.Data[j].Seq >= a.Ack {
				samples = append(samples, c.Data[j].Time-a.Time)
				break
			}
		}
	}
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	c.Profile.RTT = samples[len(samples)/2]
}
