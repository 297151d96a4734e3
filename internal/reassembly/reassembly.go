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

// streamPool recycles the linearization buffer across connections: neither
// the parsed messages nor the scanned keys alias it (bgp.Parse copies what
// it keeps, Raw is an explicit copy, keys are values), so each buffer can be
// handed to the next connection once its result is built.
var streamPool = sync.Pool{New: func() any { return new([]byte) }}

// ReassembleOpts is Reassemble with explicit options.
func ReassembleOpts(c *flows.Connection, opts Options) (*Result, error) {
	res := &Result{}
	streamBuf := streamPool.Get().(*[]byte)
	defer streamPool.Put(streamBuf)
	at := spanCursor{spans: linearize(c, opts.MaxBytes, res, streamBuf)}
	stream := *streamBuf
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

// ScanKeys is ReassembleOpts for the transfer-end estimate, which needs
// only when each UPDATE arrived and what it announced. It linearizes the
// same stream, capped at maxBytes (0 means unlimited), and validates it
// with bgp.ScanStream instead of parsing it: each UPDATE carrying NLRI is
// appended to ks with its Message time, and no bgp.Message is built. It
// returns the whole messages validated (what len(Result.Messages) would
// be) and the same error as ReassembleOpts; res.Messages stays empty. ks is
// the caller's and is appended to, never retained.
func ScanKeys(c *flows.Connection, maxBytes int64, ks *mct.KeyStream) (res Result, msgs int, err error) {
	streamBuf := streamPool.Get().(*[]byte)
	defer streamPool.Put(streamBuf)
	at := spanCursor{spans: linearize(c, maxBytes, &res, streamBuf)}
	start := len(ks.Keys)
	var consumed int
	ks.Keys, msgs, consumed, err = bgp.ScanStream(*streamBuf, ks.Keys, func(end, nkeys int) {
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

// linearize copies the contiguous prefix of c's sender stream, capped at
// maxBytes (0 means unlimited), into *streamBuf, a buffer the caller leased
// from streamPool. It fills res's coverage fields and returns the spans
// that timestamp stream positions (see spanCursor).
//
// The rule is Stream's, so batch and online reassembly agree byte for byte
// and time for time: each stream byte keeps its first captured arrival, and
// a message is stamped with the time at which the prefix through its last
// byte first became contiguous at the sniffer. Bytes before offset 0 are
// history from before a mid-stream capture's anchor and are ignored.
func linearize(c *flows.Connection, maxBytes int64, res *Result, streamBuf *[]byte) []span {
	// Walk the segments in capture order, noting each time the contiguous
	// prefix [0, contig) grows: the spans come out sorted by end.
	var covered timerange.Set
	spans := make([]span, 0, len(c.Data))
	var contig int64
	for i := range c.Data {
		d := &c.Data[i]
		covered.Add(timerange.R(max(d.Seq, 0), d.SeqEnd))
		if first, ok := covered.CoveringRange(0); ok && first.End > contig {
			contig = first.End
			spans = append(spans, span{end: contig, time: d.Time})
		}
	}
	res.StreamBytes = contig
	if all, ok := covered.Bounds(); ok {
		res.MissingRanges = covered.Complement(timerange.R(0, all.End)).Ranges()
	}
	if maxBytes > 0 && contig > maxBytes {
		res.TruncatedBytes = contig - maxBytes
		contig = maxBytes
	}

	// Copy in reverse capture order, so earlier arrivals overwrite later
	// ones. The segments cover every byte of [0, contig), so a recycled
	// buffer never needs zeroing.
	if int64(cap(*streamBuf)) < contig {
		*streamBuf = make([]byte, contig)
	}
	stream := (*streamBuf)[:contig]
	*streamBuf = stream
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
	return spans
}

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
