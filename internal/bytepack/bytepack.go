// Package bytepack copies many small byte slices into a few shared blocks,
// so that keeping n slices costs O(log n) allocations rather than n, and
// no block is ever regrown.
package bytepack

// MinBlock is the smallest block a Packer allocates.
const MinBlock = 64 << 10

// Packer copies slices into blocks it allocates and never reuses. The zero
// value is ready to use. A view it returns stays valid for as long as the
// caller holds it, and pins its whole block.
type Packer struct {
	block []byte // the block being filled
	kept  int    // bytes copied so far
}

// Copy returns a copy of b as a capped [off:end:end] view into a shared
// block, so appending to it reallocates and never writes into a neighbour;
// it returns nil for an empty b. When b does not fit in the block's free
// tail, a new block of max(len(b), kept/8, MinBlock) bytes is started: the
// unused tails stay under about 1/8 of the bytes kept, and the block count
// grows logarithmically with them.
func (p *Packer) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > cap(p.block)-len(p.block) {
		p.block = make([]byte, 0, max(len(b), p.kept/8, MinBlock))
	}
	off := len(p.block)
	p.block = append(p.block, b...)
	p.kept += len(b)
	return p.block[off:len(p.block):len(p.block)]
}
