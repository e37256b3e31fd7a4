package main

import (
	"reflect"
	"testing"
	"time"
)

func TestKernelRepeats(t *testing.T) {
	a, b := newCalibrator(), newCalibrator()
	if a.groups == 0 || a.groups != b.groups {
		t.Errorf("kernel results %d and %d, want equal and non-zero", a.groups, b.groups)
	}
	if a.allocPerRun == 0 {
		t.Error("a kernel run allocated nothing")
	}
	if a.run() <= 0 {
		t.Error("a kernel run took no time")
	}
}

func TestSlowdownsBySlice(t *testing.T) {
	ms := time.Millisecond
	w := window{
		bounds: []time.Duration{0, 250 * ms, 500 * ms, 600 * ms},
		calib: []calibSample{
			{at: 10 * ms, took: 2 * ms}, {at: 100 * ms, took: 6 * ms}, {at: 249 * ms, took: 4 * ms}, // slice 0: median 4 ms
			{at: 250 * ms, took: 3 * ms},                               // slice 1: one run, so the window's median (3 ms) stands in
			{at: 510 * ms, took: 1 * ms}, {at: 599 * ms, took: 3 * ms}, // slice 2: median 2 ms
		},
	}
	factor, busy := w.slowdowns()
	if want := []float64{4, 3, 2}; !reflect.DeepEqual(factor, want) {
		t.Errorf("slowdowns = %v, want %v", factor, want)
	}
	if want := []time.Duration{12 * ms, 3 * ms, 4 * ms}; !reflect.DeepEqual(busy, want) {
		t.Errorf("kernel time per slice = %v, want %v", busy, want)
	}
	if got := w.sliceAt(600 * ms); got != 2 {
		t.Errorf("the window's last instant falls in slice %d, want 2", got)
	}
}
