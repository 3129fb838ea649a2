package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is the benchmark's yardstick for the speed of the
// machine at this moment. The boxes the benchmark runs on are slices of a
// shared host whose speed moves by 15 % to 2x in spells that last minutes
// (neighbours on the sibling hyperthreads and in the shared cache): longer
// than a run, so no statistic taken inside a run removes them, and the wall
// seconds of identical code spread past any usable bound. The kernel is a
// fixed amount of work owned by bench/ (no engine code, so an engine change
// cannot move it), run on as many threads as the cluster has lanes around
// every set-up and every refSlice of the timed phase. Times are reported in
// reference seconds: wall seconds x refNominal / the kernel time measured
// around them, which cancels the machine's spells and keeps any change in
// the engine's own speed. On a machine on which the kernel takes refNominal
// a reference second is a wall second.
//
// Each lane streams a triad over two arrays larger than its share of the
// last-level cache (memory bandwidth and cache contention), then multiplies
// cache-resident tiles (clock, and the sibling hyperthread's share of the
// core). The two parts are timed together: one number.
const (
	benchLanes   = benchNodes * benchTasksPerNode
	refStreamLen = 4 << 20 // float64s per array: 32 MiB
	refTile      = 96
	refTileReps  = 3
	refSlice     = 300 * time.Millisecond
	// refNominal is the kernel's time on the box the benchmark was sized on
	// (2 cores of a Xeon @ 2.10GHz) in its quiet spells.
	refNominal = 10 * time.Millisecond
)

// refSeconds converts a wall time to reference seconds, given the kernel
// time measured around it.
func refSeconds(wall, kernel time.Duration) float64 {
	return wall.Seconds() * refNominal.Seconds() / kernel.Seconds()
}

type refKernel struct {
	a, b    [benchLanes][]float64 // stream arrays, outside the Go heap
	x, y, z [benchLanes][]float64 // tiles
}

// newRefKernel maps the stream arrays outside the Go heap: 128 MiB of live
// heap would move the collector's trigger and with it the GC share of every
// small workload.
func newRefKernel() (*refKernel, error) {
	k := &refKernel{}
	for l := 0; l < benchLanes; l++ {
		for _, arr := range []*[]float64{&k.a[l], &k.b[l]} {
			raw, err := syscall.Mmap(-1, 0, refStreamLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				k.close()
				return nil, fmt.Errorf("mapping the reference kernel's arrays: %w", err)
			}
			*arr = unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), refStreamLen)
		}
		k.x[l], k.y[l], k.z[l] = make([]float64, refTile*refTile), make([]float64, refTile*refTile), make([]float64, refTile*refTile)
		for i := range k.b[l] {
			k.b[l][i] = float64(i%7) * 0.25
		}
		for i := range k.x[l] {
			k.x[l][i], k.y[l][i] = float64(i%5)*0.5, float64(i%3)*0.25
		}
	}
	k.run() // page the arrays in
	return k, nil
}

// close unmaps the stream arrays.
func (k *refKernel) close() {
	for l := 0; l < benchLanes; l++ {
		for _, arr := range []*[]float64{&k.a[l], &k.b[l]} {
			if *arr != nil {
				raw := unsafe.Slice((*byte)(unsafe.Pointer(&(*arr)[0])), refStreamLen*8)
				_ = syscall.Munmap(raw) // the mapping is ours and whole; nothing to do on failure
				*arr = nil
			}
		}
	}
}

// run executes the kernel once on every lane and returns its wall time.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < benchLanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			a, b := k.a[l], k.b[l]
			for i := range a {
				a[i] = b[i]*0.5 + a[i]*0.25
			}
			x, y, z := k.x[l], k.y[l], k.z[l]
			for rep := 0; rep < refTileReps; rep++ {
				for i := 0; i < refTile; i++ {
					zi := z[i*refTile : (i+1)*refTile]
					for p := 0; p < refTile; p++ {
						xv := x[i*refTile+p]
						yp := y[p*refTile : (p+1)*refTile]
						for j := range zi {
							zi[j] += xv * yp[j]
						}
					}
				}
				for i := range z {
					z[i] *= 1e-3 // keep the values bounded over a long run
				}
			}
		}(l)
	}
	wg.Wait()
	return time.Since(start)
}

// refSlices folds timed slices, each bracketed by two runs of the reference
// kernel, into reference seconds: a slice's kernel time is the mean of the
// run before and the run after it.
type refSlices struct {
	k     *refKernel
	prev  time.Duration   // kernel time before the open slice
	lat   []float64       // op latencies, in reference seconds
	wall  float64         // sum of slice walls, in reference seconds
	times []time.Duration // every kernel run
}

// open runs the kernel before the first slice.
func (s *refSlices) open(k *refKernel) {
	s.k, s.prev = k, k.run()
	s.times = append(s.times, s.prev)
}

// close ends a slice of the given op latencies and wall time.
func (s *refSlices) close(lat []time.Duration, wall time.Duration) {
	now := s.k.run()
	s.times = append(s.times, now)
	kernel := (s.prev + now) / 2
	s.prev = now
	for _, d := range lat {
		s.lat = append(s.lat, refSeconds(d, kernel))
	}
	s.wall += refSeconds(wall, kernel)
}

func (s *refSlices) add(o refSlices) {
	s.lat = append(s.lat, o.lat...)
	s.wall += o.wall
	s.times = append(s.times, o.times...)
}
