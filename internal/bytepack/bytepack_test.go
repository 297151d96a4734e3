package bytepack

import (
	"bytes"
	"testing"
)

// TestCopyViews checks the view contract: each copy holds its source's
// bytes and is capped at its length, so an append reallocates instead of
// writing into the next copy; an empty source gives nil; and the source can
// be overwritten once Copy returns.
func TestCopyViews(t *testing.T) {
	var p Packer
	if got := p.Copy(nil); got != nil {
		t.Errorf("Copy(nil) = %v, want nil", got)
	}
	if got := p.Copy([]byte{}); got != nil {
		t.Errorf("Copy(empty) = %v, want nil", got)
	}
	src := []byte("first")
	a := p.Copy(src)
	b := p.Copy([]byte("second"))
	copy(src, "XXXXX")
	if string(a) != "first" || string(b) != "second" {
		t.Fatalf("copies = %q, %q", a, b)
	}
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Errorf("caps = %d/%d and %d/%d, want cap == len", cap(a), len(a), cap(b), len(b))
	}
	_ = append(a, "!!!!!!"...)
	if string(b) != "second" {
		t.Errorf("appending to one copy changed the next: %q", b)
	}
}

// TestBlockSizing checks the block rule: a block holds copies until one
// does not fit, a copy larger than the minimum gets a block of its own
// size, and later blocks grow with the bytes kept, so a 5 MB stream of
// packet-sized copies needs a few dozen blocks, not one per 64 KiB.
func TestBlockSizing(t *testing.T) {
	var p Packer
	pkt := bytes.Repeat([]byte{7}, 1448)
	p.Copy(pkt)
	if cap(p.block) != MinBlock {
		t.Fatalf("first block holds %d bytes, want %d", cap(p.block), MinBlock)
	}
	big := bytes.Repeat([]byte{9}, MinBlock+1)
	if got := p.Copy(big); !bytes.Equal(got, big) || cap(p.block) != len(big) {
		t.Fatalf("an oversized copy got a %d-byte block, want %d", cap(p.block), len(big))
	}
	blocks, last := 2, &p.block[0]
	for p.kept < 5<<20 {
		p.Copy(pkt)
		if b := &p.block[0]; b != last {
			blocks, last = blocks+1, b
			if want := max(p.kept/8, MinBlock); cap(p.block) > want+len(pkt) || cap(p.block) < want-len(pkt) {
				t.Fatalf("block %d holds %d bytes after %d kept, want ≈%d", blocks, cap(p.block), p.kept, want)
			}
		}
	}
	if blocks > 40 {
		t.Errorf("%d blocks for %d bytes kept, want a logarithmic count", blocks, p.kept)
	}
	t.Logf("%d blocks for %d bytes kept", blocks, p.kept)
}
