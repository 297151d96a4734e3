package bytepack

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
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

// TestResetRefillsBlocks checks the reset rule over three captures: the
// second refills the first one's blocks, in the order they were filled,
// with capped views, before it allocates; a copy too large for the next
// kept block gets a new block and leaves that one next in line; and the
// blocks a capture leaves unused are dropped at the following Reset.
func TestResetRefillsBlocks(t *testing.T) {
	var p Packer
	pkt := bytes.Repeat([]byte{7}, 1448)
	fill := func(n int) [][]byte {
		views := make([][]byte, n)
		for i := range views {
			views[i] = p.Copy(pkt)
		}
		return views
	}
	base := func(b []byte) *byte { return unsafe.SliceData(b) }

	fill(3 * MinBlock / len(pkt)) // three blocks of MinBlock
	first := slices.Clone(p.filled)
	if len(first) != 3 {
		t.Fatalf("first capture filled %d blocks, want 3", len(first))
	}
	p.Reset()
	views := fill(MinBlock/len(pkt) + 1) // the first block and the start of the second
	if len(p.filled) != 2 || base(p.filled[0]) != base(first[0]) || base(p.filled[1]) != base(first[1]) {
		t.Fatal("the second capture did not refill the first capture's blocks in order")
	}
	if base(views[0]) != base(first[0]) {
		t.Error("the first copy after Reset does not start the first kept block")
	}
	big := bytes.Repeat([]byte{9}, MinBlock+1)
	if v := p.Copy(big); !bytes.Equal(v, big) || len(p.filled) != 3 || base(p.filled[2]) == base(first[2]) {
		t.Fatal("a copy larger than the next kept block did not get a new block")
	}
	views = append(views, fill(MinBlock/len(pkt))...) // fills the rest of the second block, then the third
	if len(p.filled) != 4 || base(p.filled[3]) != base(first[2]) {
		t.Fatal("the kept block passed over for a large copy was not next in line")
	}
	for i, v := range views {
		if cap(v) != len(v) {
			t.Fatalf("view %d: cap %d, len %d", i, cap(v), len(v))
		}
		_ = append(v, 1, 2, 3)
	}
	for i, v := range views {
		if !bytes.Equal(v, pkt) {
			t.Fatalf("view %d changed after appends to its neighbours", i)
		}
	}

	p.Reset()
	fill(1) // the third capture uses only the first block
	p.Reset()
	if len(p.spare) != 1 || base(p.spare[0]) != base(first[0]) {
		t.Fatalf("Reset kept %d blocks, want the one the last capture filled", len(p.spare))
	}
	for _, b := range append(p.spare[1:cap(p.spare)], p.filled[:cap(p.filled)]...) {
		if b != nil {
			t.Fatal("the Packer still holds a block the last capture left unused")
		}
	}
}
