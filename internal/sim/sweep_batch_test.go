package sim

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"wlansim/internal/measure"
)

// batchRecorder builds a sweep whose scalar and batch runners compute the
// same deterministic function of the swept value, recording which dispatch
// served each value.
type batchRecorder struct {
	mu      sync.Mutex
	batched map[float64]bool
	groups  [][]float64
}

func (r *batchRecorder) sweep(values []float64, batchSize, workers int) *Sweep {
	r.batched = make(map[float64]bool)
	point := func(v float64) measure.Point {
		return measure.Point{Y: 3 * v, Bits: int(v) + 1}
	}
	return &Sweep{
		Name:      "batched",
		Values:    values,
		Workers:   workers,
		BatchSize: batchSize,
		RunPoint: func(v float64) (measure.Point, error) {
			r.mu.Lock()
			r.batched[v] = false
			r.mu.Unlock()
			return point(v), nil
		},
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			group := append([]float64(nil), vs...)
			pts := make([]measure.Point, len(vs))
			for i, v := range vs {
				pts[i] = point(v)
			}
			r.mu.Lock()
			r.groups = append(r.groups, group)
			for _, v := range vs {
				r.batched[v] = true
			}
			r.mu.Unlock()
			return pts, nil
		},
	}
}

// TestSweepBatchDispatch pins the grouping contract: every value is served by
// RunPointBatch in consecutive groups of BatchSize, a ragged tail group holds
// exactly its own values, and the series is identical to the scalar sweep in
// value order, for serial and parallel execution alike.
func TestSweepBatchDispatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []float64
		groups [][]float64
	}{
		{"full groups", Linspace(1, 8, 8), [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}},
		{"tail of two", Linspace(1, 10, 10), [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10}}},
		{"tail of one", Linspace(1, 5, 5), [][]float64{{1, 2, 3, 4}, {5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				rec := &batchRecorder{}
				s := rec.sweep(tc.values, 4, workers)
				series, err := s.Execute()
				if err != nil {
					t.Fatal(err)
				}
				if len(series.Points) != len(tc.values) {
					t.Fatalf("workers=%d: %d points for %d values", workers, len(series.Points), len(tc.values))
				}
				for i, p := range series.Points {
					v := tc.values[i]
					if want := (measure.Point{X: v, Y: 3 * v, Bits: int(v) + 1}); p != want {
						t.Errorf("workers=%d point %d: got %+v, want %+v", workers, i, p, want)
					}
					if !rec.batched[v] {
						t.Errorf("workers=%d value %g: served by the scalar path, want batched", workers, v)
					}
				}
				// Parallel workers may dispatch groups in any order.
				sort.Slice(rec.groups, func(i, j int) bool { return rec.groups[i][0] < rec.groups[j][0] })
				if !reflect.DeepEqual(rec.groups, tc.groups) {
					t.Errorf("workers=%d: dispatched groups %v, want %v", workers, rec.groups, tc.groups)
				}
			}
		})
	}
}

// TestSweepBatchSizeOne pins the fallback: BatchSize <= 1 never touches the
// batch runner even when one is set.
func TestSweepBatchSizeOne(t *testing.T) {
	rec := &batchRecorder{}
	s := rec.sweep(Linspace(0, 5, 6), 1, 1)
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if len(rec.groups) != 0 {
		t.Fatalf("BatchSize=1 dispatched %d batch groups", len(rec.groups))
	}
}

// TestSweepBatchCountMismatch pins that a batch runner returning the wrong
// number of points is an executor error, not a silent truncation.
func TestSweepBatchCountMismatch(t *testing.T) {
	s := &Sweep{
		Name:      "short",
		Values:    Linspace(0, 3, 4),
		BatchSize: 2,
		Workers:   1,
		RunPoint: func(v float64) (measure.Point, error) {
			return measure.Point{Y: v}, nil
		},
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			return make([]measure.Point, len(vs)-1), nil
		},
	}
	if _, err := s.Execute(); err == nil {
		t.Fatal("short batch result did not error")
	}
}

// TestSweepBatchErrorPropagates pins deterministic error reporting through
// the batched path: the lowest failing work unit wins under any worker count.
func TestSweepBatchErrorPropagates(t *testing.T) {
	fail := errors.New("batch point failed")
	for _, workers := range []int{1, 3} {
		s := &Sweep{
			Name:      "failing",
			Values:    Linspace(0, 7, 8),
			BatchSize: 3,
			Workers:   workers,
			RunPoint: func(v float64) (measure.Point, error) {
				return measure.Point{Y: v}, nil
			},
			RunPointBatch: func(vs []float64) ([]measure.Point, error) {
				if vs[0] == 3 { // the second group [3,4,5]
					return nil, fail
				}
				return make([]measure.Point, len(vs)), nil
			},
		}
		_, err := s.Execute()
		if !errors.Is(err, fail) {
			t.Fatalf("workers=%d: got %v, want wrapped %v", workers, err, fail)
		}
	}
}
