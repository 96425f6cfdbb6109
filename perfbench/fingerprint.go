package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/types"
)

// fingerprint is an order-independent digest of a result set. Exact
// cells (integers, dates, strings) hash into keyHash, a sum over rows so
// row order does not matter. Float cells are summed per column, plainly
// and weighted by a function of their row's exact cells, and compared
// with a relative tolerance: parallel aggregation adds floats in a
// different order on every run, so their last bits are not stable.
type fingerprint struct {
	rows     int
	keyHash  uint64
	floatSum []float64
	floatWtd []float64
}

// floatTol is the relative tolerance of float column sums.
const floatTol = 1e-6

// fpBuilder accumulates rows into a fingerprint.
type fpBuilder struct {
	fp    fingerprint
	exact []string
	flts  []float64
	isFlt []bool
}

func (b *fpBuilder) row(cells int, cell func(i int) (s string, f float64, isFloat bool)) {
	if len(b.fp.floatSum) < cells {
		b.fp.floatSum = append(b.fp.floatSum, make([]float64, cells-len(b.fp.floatSum))...)
		b.fp.floatWtd = append(b.fp.floatWtd, make([]float64, cells-len(b.fp.floatWtd))...)
	}
	h := fnv.New64a()
	b.flts, b.isFlt = b.flts[:0], b.isFlt[:0]
	for i := 0; i < cells; i++ {
		s, f, isF := cell(i)
		b.flts = append(b.flts, f)
		b.isFlt = append(b.isFlt, isF)
		if !isF {
			h.Write([]byte(s))
		}
		h.Write([]byte{0})
	}
	rh := h.Sum64()
	w := float64(rh>>40) / float64(1<<24)
	for i, isF := range b.isFlt {
		if isF {
			b.fp.floatSum[i] += b.flts[i]
			b.fp.floatWtd[i] += b.flts[i] * w
		}
	}
	b.fp.keyHash += rh
	b.fp.rows++
}

// fingerprintResult digests an in-process engine result.
func fingerprintResult(res *engine.Result) fingerprint {
	var b fpBuilder
	for _, row := range res.Rows() {
		b.row(len(row), func(i int) (string, float64, bool) {
			v := row[i]
			if v.Kind == types.Float64 && !v.Null {
				return "", v.F, true
			}
			return v.String(), 0, false
		})
	}
	return b.fp
}

// fingerprintStrings digests a result rendered as text, the shape
// claims-node returns: a cell with a decimal point is a float.
func fingerprintStrings(rows [][]string) fingerprint {
	var b fpBuilder
	for _, row := range rows {
		b.row(len(row), func(i int) (string, float64, bool) {
			s := row[i]
			if strings.Contains(s, ".") {
				if f, err := strconv.ParseFloat(s, 64); err == nil {
					return "", f, true
				}
			}
			return s, 0, false
		})
	}
	return b.fp
}

// renderRows renders an engine result the way claims-node does, so an
// in-process reference can be compared with a distributed answer.
func renderRows(res *engine.Result) [][]string {
	var out [][]string
	for _, row := range res.Rows() {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, cells)
	}
	return out
}

// check reports how got differs from want, or nil when they match.
func (want fingerprint) check(got fingerprint) error {
	if got.rows != want.rows {
		return fmt.Errorf("wrong answer: %d rows, want %d", got.rows, want.rows)
	}
	if got.keyHash != want.keyHash || len(got.floatSum) != len(want.floatSum) {
		return fmt.Errorf("wrong answer: row contents differ from the reference")
	}
	for i := range want.floatSum {
		if !near(got.floatSum[i], want.floatSum[i]) || !near(got.floatWtd[i], want.floatWtd[i]) {
			return fmt.Errorf("wrong answer: column %d sums to %g, want %g", i, got.floatSum[i], want.floatSum[i])
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
