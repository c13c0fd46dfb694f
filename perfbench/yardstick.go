package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: how fast it runs the same
// code moves by a third and more over minutes, with the other tenants'
// load, and CPU time moves with it. A yardstick, a fixed piece of work that
// is no part of the program, is timed from before set-up to the end of the
// timed phase; the ratio of its time to its time on the reference host is
// the run's host factor, and setup_s and the *_ref metrics divide the
// measured times by it. Sorting was chosen because on the reference host
// its time tracks the workloads' step and job times (correlation above 0.9
// over runs), where a memory walk's does not.

// yardstickRef is the yardstick's median thread CPU time on the reference
// host (a 2-vCPU Intel Xeon VM) when that host was quiet. It only sets the
// scale of the *_ref metrics: a run at that speed reports them equal to the
// measured ones.
const yardstickRef = 1250 * time.Microsecond

// yardstickPeriod is how often the probe runs the yardstick, which takes
// about 1% of one core.
const yardstickPeriod = 100 * time.Millisecond

const yardstickLen = 4096

// yardstick copies and sorts a fixed array of floats four times.
func yardstick(src, buf []float64) float64 {
	var s float64
	for k := 0; k < 4; k++ {
		copy(buf, src)
		sort.Float64s(buf)
		s += buf[k]
	}
	return s
}

func yardstickInput() []float64 {
	src := make([]float64, yardstickLen)
	for i := range src {
		src[i] = float64((i * 7919) % 4099)
	}
	return src
}

// hostProbe times the yardstick in its own goroutine, locked to its own
// thread, by that thread's CPU time: waiting for a processor does not
// count, being given a slower one does.
type hostProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []time.Duration // written by the probe, read once it is done
	sink    float64
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	src, buf := yardstickInput(), make([]float64, yardstickLen)
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(yardstickPeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				c := threadCPUTime()
				p.sink += yardstick(src, buf)
				p.samples = append(p.samples, threadCPUTime()-c)
			}
		}
	}()
	return p
}

// finish stops the probe, waits for it, and returns the host factor: the
// median yardstick time over yardstickRef. It is 1 when the probe took no
// sample.
func (p *hostProbe) finish() (factor float64, yard time.Duration) {
	close(p.stop)
	<-p.done
	yard = median(p.samples)
	if yard <= 0 {
		return 1, yard
	}
	return float64(yard) / float64(yardstickRef), yard
}
