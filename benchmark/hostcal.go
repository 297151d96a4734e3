package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"tdat/benchmark/result"
)

const (
	// calReps is how many kernel runs a calibration snapshot takes the
	// median of.
	calReps = 25
	// calRefMs is the kernel's time on the reference host (a 2-CPU Linux
	// container, go1.24.0, in a quiet period). Time metrics are reported as
	// the time the analyzer would have taken there.
	calRefMs = 8.0
	// calEvery spaces the calibration samples taken during a timed phase.
	calEvery = 200 * time.Millisecond
	// hashBytes is how much the kernel hashes.
	hashBytes = 256 << 10
	// chaseBits sizes the pointer-chase table: 2^24 four-byte entries,
	// 64 MiB, well beyond any cache.
	chaseBits  = 24
	chaseLoads = 50_000
)

// offHeap copies b into memory outside the Go heap. A process that streams
// a capture from a file holds none of it on its heap, and the collector
// paces itself by the live heap, so inputs and the calibration table live
// here to leave the analyzer's collection rate as it is in use. The inputs'
// mappings last as long as the process.
func offHeap(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return b, nil
	}
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", len(b), err)
	}
	copy(m, b)
	return m, nil
}

// calibrator times a fixed kernel that shares no code with the analyzer:
// SHA-256 over 256 KiB, 20k map inserts and a sort of the keys, then 50k
// dependent loads from a 64 MiB table. The first part moves with the
// processor's speed and the last with memory latency, which is what
// slows the allocation-heavy workloads most when neighbours load the host.
// It runs on as many lanes at once as the analysis it calibrates has
// workers, so it also sees how much of a second processor the host
// leaves.
type calibrator struct {
	// mem holds the hashed bytes, then the chase table: a full-period
	// linear congruential step, so following it from any entry visits
	// every entry once, in an order no prefetcher can follow. It is mapped
	// outside the Go heap, and lanes only read it.
	mem []byte
	// at holds where each lane's chase stopped; the next run continues
	// from there, so runs do not revisit the same cached entries.
	at   []uint32
	sink uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, hashBytes+4<<chaseBits, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration table: %w", err)
	}
	for i := range mem[:hashBytes] {
		mem[i] = byte(i * 7)
	}
	chase := mem[hashBytes:]
	for i := 0; i < 1<<chaseBits; i++ {
		binary.LittleEndian.PutUint32(chase[4*i:], uint32((1664525*i+1013904223)&(1<<chaseBits-1)))
	}
	return &calibrator{mem: mem}, nil
}

// close unmaps the calibrator's memory.
func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

// lane is one lane's working space for a run, allocated before the clock
// starts and garbage after it, so the kernel keeps nothing on the heap.
type lane struct {
	m    map[uint64]int
	keys []uint64
	at   uint32
}

func (c *calibrator) run(l *lane) {
	sum := sha256.Sum256(c.mem[:hashBytes])
	x := uint64(sum[0]) | 1
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l.m[x] = i
	}
	for k := range l.m {
		l.keys = append(l.keys, k)
	}
	slices.Sort(l.keys)
	chase := c.mem[hashBytes:]
	p := l.at
	for i := 0; i < chaseLoads; i++ {
		p = binary.LittleEndian.Uint32(chase[4*p:])
	}
	l.at = p
}

// once runs the kernel on the given number of lanes at once and returns
// the wall time in milliseconds.
func (c *calibrator) once(lanes int) float64 {
	for len(c.at) < lanes {
		c.at = append(c.at, uint32(len(c.at))<<(chaseBits-2))
	}
	ls := make([]lane, lanes)
	for i := range ls {
		ls[i] = lane{m: make(map[uint64]int, 20_000), keys: make([]uint64, 0, 20_000), at: c.at[i]}
	}
	t0 := time.Now()
	if lanes == 1 {
		c.run(&ls[0])
	} else {
		var wg sync.WaitGroup
		for i := range ls {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				c.run(l)
			}(&ls[i])
		}
		wg.Wait()
	}
	d := time.Since(t0)
	for i := range ls {
		c.at[i] = ls[i].at
		c.sink += ls[i].keys[0]
	}
	return float64(d.Nanoseconds()) / 1e6
}

// snapshot collects the heap, then returns the median of calReps
// single-lane kernel runs.
func (c *calibrator) snapshot() float64 {
	runtime.GC()
	ms := make([]float64, calReps)
	for i := range ms {
		ms[i] = c.once(1)
	}
	return result.Median(ms)
}

// calScale converts times measured while the kernel took calMs into
// times on the reference host.
func calScale(calMs float64) float64 { return calRefMs / calMs }
