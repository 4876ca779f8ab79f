package main

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"syscall"
	"time"

	"cloudiq"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the measurements one run prints.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. With n
// samples it leaves n - ceil(p*n/100) samples beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fingerprint hashes a query result row by row, every value in full
// precision, so any difference in rows, order or value changes it.
func fingerprint(b *cloudiq.Batch) uint64 {
	h := fnv.New64a()
	var buf []byte
	for r := 0; r < b.Rows(); r++ {
		for _, v := range b.Vecs {
			buf = buf[:0]
			switch v.Typ {
			case cloudiq.Int64:
				buf = strconv.AppendInt(buf, v.I64[r], 10)
			case cloudiq.Float64:
				buf = strconv.AppendUint(buf, math.Float64bits(v.F64[r]), 16)
			default:
				buf = append(buf, v.Str[r]...)
			}
			buf = append(buf, '|')
			h.Write(buf)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// rusage reads the process's CPU time and peak resident set size.
func rusage() (cpu time.Duration, peakRSSBytes int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss * 1024 // Linux reports ru_maxrss in KiB
}
