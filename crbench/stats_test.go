package main

import "testing"

func TestSummarizeMedianAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Median != 500.5 {
		t.Fatalf("n=%d median=%v, want 1000 and 500.5", s.N, s.Median)
	}
	if s.TailPct != 99 || s.Tail != 990 || s.TailLabel() != "p99" {
		t.Fatalf("tail %s = %v, want p99 = 990", s.TailLabel(), s.Tail)
	}
}

func TestSummarizeTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 37, 100, 200, 999, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := Summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < minTailBeyond {
			t.Errorf("n=%d: %s leaves %d samples beyond, want >= %d", n, s.TailLabel(), beyond, minTailBeyond)
		}
		if s.TailPct > 99 || s.TailPct < 50 {
			t.Errorf("n=%d: tail percentile %v outside [50, 99]", n, s.TailPct)
		}
	}
}

func TestSummarizeFewSamplesFallsBackToMedian(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 100})
	if s.Median != 2.5 || s.Tail != s.Median || s.TailPct != 50 {
		t.Fatalf("got %+v, want the median 2.5 as tail", s)
	}
	if s.TailLabel() == "p50" {
		t.Fatalf("label %q does not say the sample is too small", s.TailLabel())
	}
	if (Summarize(nil) != Summary{}) {
		t.Fatal("empty input should give the zero summary")
	}
}
