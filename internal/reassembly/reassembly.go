// Package reassembly reconstructs the sender→receiver TCP byte stream of an
// extracted connection, tolerating out-of-order delivery and
// retransmissions, and extracts the BGP messages it carries. This is the
// core of the paper's pcap2bgp side tool (§II-A): for vendor collectors
// that keep no MRT archive, it recovers the BGP message stream (with
// arrival timestamps) straight from the packet trace.
package reassembly

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/timerange"
)

// Message is one BGP message recovered from the stream, stamped with the
// arrival time of the packet that completed it.
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

// span records when the stream bytes up to end first became available.
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

// ReassembleLimited is Reassemble with a cap on the linearized stream:
// at most maxBytes of the contiguous prefix are materialized and decoded
// (0 means unlimited). A hostile capture whose sequence numbers claim a
// multi-gigabyte contiguous stream then costs at most maxBytes of memory;
// what the cap cut off is reported in Result.TruncatedBytes.
func ReassembleLimited(c *flows.Connection, maxBytes int64) (*Result, error) {
	return ReassembleOpts(c, Options{MaxBytes: maxBytes, KeepRaw: true})
}

// seg is one first-arrival payload at a stream offset.
type seg struct {
	off  int64
	data []byte
	time timerange.Micros
}

// streamPool recycles the linearization buffer across connections: neither
// the parsed messages nor the scanned keys alias it (bgp.Parse copies what
// it keeps, Raw is an explicit copy, keys are values), so each buffer can be
// handed to the next connection once its result is built.
var streamPool = sync.Pool{New: func() any { return new([]byte) }}

// fitStream resizes the leased buffer *bp to n bytes, zeroed unless the
// caller promises to overwrite every byte. Zeroing matters when coverage
// has holes: a longer duplicate of a segment start may have been
// deduplicated away, and bytes only the duplicate covered must read as
// zero — the same bytes a freshly allocated buffer would have shown.
func fitStream(bp *[]byte, n int64, fullyCovered bool) {
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
		return
	}
	*bp = (*bp)[:n]
	if !fullyCovered {
		clear(*bp)
	}
}

// ReassembleOpts is Reassemble with explicit options.
func ReassembleOpts(c *flows.Connection, opts Options) (*Result, error) {
	res := &Result{}
	streamBuf := streamPool.Get().(*[]byte)
	defer streamPool.Put(streamBuf)
	spans := linearize(c, opts.MaxBytes, res, streamBuf)
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
			Time: timeAt(spans, off+length),
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
// appended to ks with its arrival time, and no bgp.Message is built. It
// returns the whole messages validated (what len(Result.Messages) would
// be) and the same error as ReassembleOpts; res.Messages stays empty. ks is
// the caller's and is appended to, never retained.
func ScanKeys(c *flows.Connection, maxBytes int64, ks *mct.KeyStream) (res Result, msgs int, err error) {
	streamBuf := streamPool.Get().(*[]byte)
	defer streamPool.Put(streamBuf)
	spans := linearize(c, maxBytes, &res, streamBuf)
	start := len(ks.Keys)
	var consumed int
	ks.Keys, msgs, consumed, err = bgp.ScanStream(*streamBuf, ks.Keys, func(end, nkeys int) {
		ks.Updates = append(ks.Updates, mct.KeyUpdate{Time: timeAt(spans, int64(end)), Start: start, End: nkeys})
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
// from streamPool. It fills res's coverage fields and returns the arrival
// spans that timestamp stream positions (see timeAt).
func linearize(c *flows.Connection, maxBytes int64, res *Result, streamBuf *[]byte) []span {
	segs := make([]seg, 0, len(c.Data))
	covered := timerange.NewSet()
	var limit int64
	for i := range c.Data {
		d := &c.Data[i]
		if d.Len == 0 {
			continue
		}
		payload := d.Payload
		if payload == nil {
			payload = make([]byte, d.Len) // length-only traces
		}
		segs = append(segs, seg{off: d.Seq, data: payload, time: d.Time})
		covered.Add(timerange.R(d.Seq, d.SeqEnd))
		if d.SeqEnd > limit {
			limit = d.SeqEnd
		}
	}
	if limit == 0 {
		*streamBuf = (*streamBuf)[:0]
		return nil
	}
	contig := int64(0)
	if covered.Len() > 0 && covered.At(0).Start == 0 {
		contig = covered.At(0).End
	}
	res.StreamBytes = contig
	res.MissingRanges = covered.Complement(timerange.R(0, limit)).Ranges()
	if maxBytes > 0 && contig > maxBytes {
		res.TruncatedBytes = contig - maxBytes
		contig = maxBytes
	}

	// Linearize the contiguous prefix, remembering per-segment arrival
	// boundaries for message timestamping. Segments are copied in ascending
	// offset order (they usually already are — capture order), so
	// overlapping segments with inconsistent payloads in an adversarial
	// trace still linearize deterministically. First arrival wins at each
	// offset — retransmissions carry identical bytes — and the stable sort
	// keeps arrivals at one offset in capture order, first arrival first.
	byOffset := func(a, b seg) int { return cmp.Compare(a.off, b.off) }
	if !slices.IsSortedFunc(segs, byOffset) {
		slices.SortStableFunc(segs, byOffset)
	}
	segs = slices.CompactFunc(segs, func(a, b seg) bool { return a.off == b.off })
	// The copy loop below overwrites every byte of [0, contig) iff the kept
	// first-arrival segments leave no hole — the usual case, which lets
	// fitStream skip zeroing a recycled buffer.
	var keptTo int64
	for _, s := range segs {
		if s.off > keptTo {
			break
		}
		if end := s.off + int64(len(s.data)); end > keptTo {
			keptTo = end
		}
	}
	fitStream(streamBuf, contig, keptTo >= contig)
	stream := *streamBuf
	spans := make([]span, 0, len(segs))
	for _, s := range segs {
		if s.off >= contig {
			continue
		}
		end := s.off + int64(len(s.data))
		if end > contig {
			end = contig
		}
		copy(stream[s.off:end], s.data[:end-s.off])
		spans = append(spans, span{end: end, time: s.time})
	}
	// Capture order usually leaves the spans sorted already, and sort.Slice
	// would leave sorted input as it is (ties included), so skip its
	// allocations then.
	if !slices.IsSortedFunc(spans, func(a, b span) int { return cmp.Compare(a.end, b.end) }) {
		sort.Slice(spans, func(i, j int) bool { return spans[i].end < spans[j].end })
	}

	res.LooksLikeBGP = len(stream) >= len(bgpMarker) && bytes.Equal(stream[:len(bgpMarker)], bgpMarker)
	return spans
}

// timeAt returns the arrival time of the segment containing stream position
// pos-1, i.e. when the message ending at pos became complete.
func timeAt(spans []span, pos int64) timerange.Micros {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end >= pos })
	if i < len(spans) {
		return spans[i].time
	}
	if len(spans) > 0 {
		return spans[len(spans)-1].time
	}
	return 0
}
