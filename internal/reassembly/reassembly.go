// Package reassembly reconstructs the sender→receiver TCP byte stream of an
// extracted connection, tolerating out-of-order delivery and
// retransmissions, and extracts the BGP messages it carries. This is the
// core of the paper's pcap2bgp side tool (§II-A): for vendor collectors
// that keep no MRT archive, it recovers the BGP message stream (with
// arrival timestamps) straight from the packet trace.
package reassembly

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/timerange"
)

// Message is one BGP message recovered from the stream, stamped with the
// time at which the stream through its last byte first became contiguous
// at the sniffer.
type Message struct {
	Time timerange.Micros
	Msg  bgp.Message
	Raw  []byte
}

// Result is the reassembly outcome for one connection.
type Result struct {
	Messages []Message
	// StreamBytes is the number of contiguous stream bytes recovered from
	// offset zero.
	StreamBytes int64
	// MissingRanges lists sequence ranges never captured (tcpdump drops or
	// pre-capture history); decoding stops at the first persistent hole so
	// framing is never guessed.
	MissingRanges []timerange.Range
	// TruncatedBytes counts recovered contiguous bytes beyond the caller's
	// byte cap that were left undecoded — the lenient resource cap a
	// corrupt-sequence capture cannot blow past.
	TruncatedBytes int64
	// LooksLikeBGP reports that the recovered stream opens with the BGP
	// synchronization marker (or decoded at least one message): a framing
	// error then means a damaged BGP transfer, not some other protocol on
	// the wire.
	LooksLikeBGP bool
}

// span records when the stream bytes up to end first became contiguous.
type span struct {
	end  int64
	time timerange.Micros
}

// Options tunes batch reassembly; the zero value matches Reassemble.
type Options struct {
	// MaxBytes caps the linearized contiguous prefix (0 means unlimited);
	// the overflow is reported in Result.TruncatedBytes.
	MaxBytes int64
	// KeepRaw populates Message.Raw with a private copy of each message's
	// wire bytes. The analyzer's MCT path only reads the parsed messages,
	// so it leaves this off and skips one stream-sized set of copies per
	// connection; tools that re-emit wire bytes (pcap2bgp, MRT conversion)
	// turn it on.
	KeepRaw bool
}

// Reassemble rebuilds the byte stream of c and splits it into BGP messages.
func Reassemble(c *flows.Connection) (*Result, error) {
	return ReassembleOpts(c, Options{KeepRaw: true})
}

// streamPool recycles ReassembleOpts's linearization working set across
// connections: the parsed messages alias none of it (bgp.Parse copies what
// it keeps, and Raw is an explicit copy), so it can be handed to the next
// connection once the result is built.
var streamPool = sync.Pool{New: func() any { return new(linearizer) }}

// ReassembleOpts is Reassemble with explicit options.
func ReassembleOpts(c *flows.Connection, opts Options) (*Result, error) {
	res := &Result{}
	l := streamPool.Get().(*linearizer)
	defer streamPool.Put(l)
	l.linearize(c, opts.MaxBytes, res)
	at := spanCursor{spans: l.spans}
	stream := l.stream
	msgs, consumed, err := bgp.SplitStream(stream)
	if err != nil {
		return res, framingError(consumed, err)
	}
	res.Messages = make([]Message, 0, len(msgs))
	off := int64(0)
	for _, m := range msgs {
		length := int64(uint16(stream[off+16])<<8 | uint16(stream[off+17]))
		var raw []byte
		if opts.KeepRaw {
			raw = append([]byte(nil), stream[off:off+length]...)
		}
		res.Messages = append(res.Messages, Message{
			Time: at.timeAt(off + length),
			Msg:  m,
			Raw:  raw,
		})
		off += length
	}
	return res, nil
}

// Scanner is the working set of the capture path's transfer end: the
// linearization buffer, the spans that timestamp it, and the key stream
// with mct.FindEndKeys's scratch. Its owner keeps one per concurrent
// analysis and reuses it from one connection to the next, so a warm
// transfer-end pass allocates nothing. A Scanner is not safe for
// concurrent use.
type Scanner struct {
	// Keys is the key stream the last ScanKeys recovered.
	Keys mct.KeyStream
	lin  linearizer
}

// ScanKeys is ReassembleOpts for the transfer-end estimate, which needs
// only when each UPDATE arrived and what it announced. It linearizes the
// same stream, capped at maxBytes (0 means unlimited), and validates it
// with bgp.ScanStream instead of parsing it: s.Keys is refilled with each
// UPDATE carrying NLRI, stamped with its Message time, and no bgp.Message
// is built. It returns the whole messages validated (what
// len(Result.Messages) would be) and the same error as ReassembleOpts;
// res.Messages stays empty. Nothing it returns aliases s.
func (s *Scanner) ScanKeys(c *flows.Connection, maxBytes int64) (res Result, msgs int, err error) {
	s.lin.linearize(c, maxBytes, &res)
	at := spanCursor{spans: s.lin.spans}
	ks := &s.Keys
	ks.Reset()
	start := 0
	var consumed int
	ks.Keys, msgs, consumed, err = bgp.ScanStream(s.lin.stream, ks.Keys, func(end, nkeys int) {
		ks.Updates = append(ks.Updates, mct.KeyUpdate{Time: at.timeAt(int64(end)), Start: start, End: nkeys})
		start = nkeys
	})
	if err != nil {
		return res, msgs, framingError(consumed, err)
	}
	return res, msgs, nil
}

func framingError(consumed int, err error) error {
	return fmt.Errorf("reassembly: BGP framing at offset %d: %w", consumed, err)
}

// linearizer is linearize's working set: the stream buffer, the spans
// that timestamp it (see spanCursor) and the coverage set. Each call
// overwrites all three and keeps their storage.
type linearizer struct {
	stream  []byte
	spans   []span
	covered timerange.Set
}

// linearize copies the contiguous prefix of c's sender stream, capped at
// maxBytes (0 means unlimited), into l.stream and records in l.spans when
// each part of it became contiguous. It fills res's coverage fields.
//
// The rule is Stream's, so batch and online reassembly agree byte for byte
// and time for time: each stream byte keeps its first captured arrival, and
// a message is stamped with the time at which the prefix through its last
// byte first became contiguous at the sniffer. Bytes before offset 0 are
// history from before a mid-stream capture's anchor and are ignored.
func (l *linearizer) linearize(c *flows.Connection, maxBytes int64, res *Result) {
	// Walk the segments in capture order, noting each time the contiguous
	// prefix [0, contig) grows: the spans come out sorted by end.
	l.covered.Reset()
	l.spans = slices.Grow(l.spans[:0], len(c.Data))
	var contig int64
	for i := range c.Data {
		d := &c.Data[i]
		l.covered.Add(timerange.R(max(d.Seq, 0), d.SeqEnd))
		if first, ok := l.covered.CoveringRange(0); ok && first.End > contig {
			contig = first.End
			l.spans = append(l.spans, span{end: contig, time: d.Time})
		}
	}
	res.StreamBytes = contig
	// Bytes are missing exactly when the coverage reaches past the prefix.
	if all, ok := l.covered.Bounds(); ok && all.End > contig {
		res.MissingRanges = l.covered.Complement(timerange.R(0, all.End)).Ranges()
	}
	if maxBytes > 0 && contig > maxBytes {
		res.TruncatedBytes = contig - maxBytes
		contig = maxBytes
	}

	// Copy in reverse capture order, so earlier arrivals overwrite later
	// ones. The segments cover every byte of [0, contig), so a reused
	// buffer never needs zeroing.
	if int64(cap(l.stream)) < contig {
		l.stream = make([]byte, contig)
	}
	stream := l.stream[:contig]
	l.stream = stream
	for i := len(c.Data) - 1; i >= 0; i-- {
		d := &c.Data[i]
		lo, hi := max(d.Seq, 0), min(d.SeqEnd, contig)
		switch {
		case lo >= hi: // nothing in the prefix
		case d.Payload == nil:
			clear(stream[lo:hi]) // length-only traces
		default:
			copy(stream[lo:hi], d.Payload[lo-d.Seq:])
		}
	}

	res.LooksLikeBGP = len(stream) >= len(bgpMarker) && bytes.Equal(stream[:len(bgpMarker)], bgpMarker)
}

// bgpMarker is the all-ones synchronization marker opening every BGP
// message header.
var bgpMarker = bytes.Repeat([]byte{0xFF}, 16)

// spanCursor stamps stream positions with linearize's spans. The spans are
// sorted by end and both callers ask for increasing positions, so the
// cursor advances one index rather than searching.
type spanCursor struct {
	spans []span
	i     int
}

// timeAt returns when the stream through position pos-1 first became
// contiguous, i.e. when the message ending at pos became complete. pos lies
// in the linearized prefix, so some span reaches it, and is no smaller than
// the previous call's.
func (c *spanCursor) timeAt(pos int64) timerange.Micros {
	for c.spans[c.i].end < pos {
		c.i++
	}
	return c.spans[c.i].time
}
