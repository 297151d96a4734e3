// Package bytepack copies many small byte slices into a few shared blocks,
// so that keeping n slices costs O(log n) allocations rather than n, and
// no block is ever regrown.
package bytepack

// MinBlock is the smallest block a Packer allocates.
const MinBlock = 64 << 10

// Packer copies slices into blocks it allocates. The zero value is ready to
// use. A view it returns stays valid until the next Reset, and pins its
// whole block. The Packer holds every block it has started since its last
// Reset, for Reset to keep; one that is never Reset never reuses a block.
type Packer struct {
	block []byte // the block being filled
	kept  int    // bytes copied since the last Reset
	// filled lists the blocks started since the last Reset, in order, the
	// one being filled last; spare[next:] are the blocks the last Reset
	// kept that Copy has not started again yet.
	filled [][]byte
	spare  [][]byte
	next   int
}

// Copy returns a copy of b as a capped [off:end:end] view into a shared
// block, so appending to it reallocates and never writes into a neighbour;
// it returns nil for an empty b. When b does not fit in the block's free
// tail, Copy starts the next block the last Reset kept, if b fits in it,
// and otherwise a new block of max(len(b), kept/8, MinBlock) bytes: the
// unused tails stay under about 1/8 of the bytes kept, and the block count
// grows logarithmically with them.
func (p *Packer) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > cap(p.block)-len(p.block) {
		if p.next < len(p.spare) && len(b) <= cap(p.spare[p.next]) {
			p.block = p.spare[p.next][:0]
			p.next++
		} else {
			p.block = make([]byte, 0, max(len(b), p.kept/8, MinBlock))
		}
		p.filled = append(p.filled, p.block)
	}
	off := len(p.block)
	p.block = append(p.block, b...)
	p.kept += len(b)
	return p.block[off:len(p.block):len(p.block)]
}

// Reset ends every view Copy has returned and keeps the blocks they were
// copied into, so that later copies refill them, in the order they were
// first filled, before any new block is allocated. The blocks the previous
// Reset kept and Copy did not start again are dropped, so a Packer holds
// no more than the blocks filled between its last two Resets. The caller
// must be done with every view first: later copies overwrite their bytes.
func (p *Packer) Reset() {
	clear(p.spare)
	p.spare, p.filled = p.filled, p.spare[:0]
	p.block, p.kept, p.next = nil, 0, 0
}
