package main

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference box is a shared host: the speed of the one CPU the process
// is pinned to moves by a factor of up to two within a minute (a neighbour
// on the sibling hyperthread, frequency), and stays there for longer than a
// run lasts, so no statistic of one run's raw times repeats. The
// speedometer runs a small fixed kernel on that CPU every speedEvery for
// the whole life of the process (2 % of the CPU) and records what it cost.
// Every reported time is then corrected to the reference speed:
//
//	corrected = measured × mean over the measured interval of (speedRefCost ÷ kernel cost)
//
// so a flight that took 30 ms while the kernel cost 1.5 × speedRefCost
// reads 20 ms, what it would have taken with the CPU at reference speed.
// Raw times are printed beside the corrected ones. See README, "One CPU and
// speed correction".
const (
	speedEvery = 40 * time.Millisecond

	// speedSpan is the shortest stretch a speed is averaged over: an op
	// shorter than this is corrected with the kernel runs around it, so one
	// kernel run that was itself interrupted does not decide an op's time.
	speedSpan = 200 * time.Millisecond

	// speedRefCost is the kernel's cost on the reference box (Xeon 2.1 GHz
	// vCPU) with the core to itself. It only fixes the unit: results of two
	// commits are compared under the same constant.
	speedRefCost = 700 * time.Microsecond
)

// speedKernel is the fixed work: what the workloads spend their time in,
// big-integer RSA, JSON with allocation and system calls that copy bytes
// between buffers, straight from the standard library so no change to the
// program moves it. Measured against the street and city workloads, each
// of the three tracks the slow-downs of this box to within a few percent;
// a hashing loop and a pointer chase through 16 MB did not (README, "One
// CPU and speed correction").
type speedKernel struct {
	key  *rsa.PrivateKey
	ct   []byte
	doc  []byte
	r, w *os.File // a pipe
	buf  []byte
}

// speedPipeTrips is how often one kernel run writes and reads the pipe.
const speedPipeTrips = 32

func newSpeedKernel() (*speedKernel, error) {
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	ct, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, &key.PublicKey, make([]byte, 32), nil)
	if err != nil {
		return nil, err
	}
	type sample struct {
		T        int64
		Lat, Lon float64
		Sig      []byte
	}
	doc := make([]sample, 64)
	for i := range doc {
		doc[i] = sample{T: int64(i), Lat: 40 + float64(i)/1e4, Lon: -88 - float64(i)/1e4, Sig: make([]byte, 64)}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	return &speedKernel{key: key, ct: ct, doc: b, r: r, w: w, buf: make([]byte, 1024)}, nil
}

func (k *speedKernel) close() error { return errors.Join(k.r.Close(), k.w.Close()) }

func (k *speedKernel) run() error {
	if _, err := rsa.DecryptOAEP(sha256.New(), nil, k.key, k.ct, nil); err != nil {
		return err
	}
	var v []map[string]any
	if err := json.Unmarshal(k.doc, &v); err != nil {
		return err
	}
	if _, err := json.Marshal(v); err != nil {
		return err
	}
	for i := 0; i < speedPipeTrips; i++ {
		if _, err := k.w.Write(k.buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(k.r, k.buf); err != nil {
			return err
		}
	}
	return nil
}

// speedometer is the running record of the CPU's speed: one entry per
// kernel run, speed = speedRefCost ÷ cost (1 at reference speed, 0.5 when
// the CPU is half as fast).
type speedometer struct {
	mu    sync.Mutex
	at    []time.Time
	speed []float64 // prefix sums: speed[i] = Σ speeds of runs 0..i-1
	stop  chan struct{}
	done  chan struct{}
	err   error
}

func startSpeedometer() (*speedometer, error) {
	k, err := newSpeedKernel()
	if err != nil {
		return nil, err
	}
	s := &speedometer{speed: []float64{0}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer func() { s.err = errors.Join(s.err, k.close()) }()
		// The kernel's cost is this thread's CPU time, so time another
		// thread held the CPU in between does not count.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			c0, err := threadCPU()
			if err == nil {
				err = k.run()
			}
			c1, err2 := threadCPU()
			if err == nil {
				err = err2
			}
			s.mu.Lock()
			if err != nil || c1 <= c0 {
				if s.err == nil && err != nil {
					s.err = err
				}
			} else {
				s.at = append(s.at, time.Now())
				s.speed = append(s.speed, s.speed[len(s.speed)-1]+float64(speedRefCost)/float64(c1-c0))
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *speedometer) close() error {
	close(s.stop)
	<-s.done
	return s.err
}

// over is the CPU's mean speed between from and to, widened to speedSpan;
// where even that holds no kernel run it reads the nearest one.
func (s *speedometer) over(from, to time.Time) float64 {
	if short := speedSpan - to.Sub(from); short > 0 {
		from, to = from.Add(-short/2), to.Add(short/2)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.at)
	if n == 0 {
		return 1 // check reports this
	}
	lo := sort.Search(n, func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(n, func(i int) bool { return s.at[i].After(to) })
	if hi <= lo {
		// lo is the first run at or after from; the one before may be nearer.
		i := min(lo, n-1)
		if i > 0 && from.Sub(s.at[i-1]) < s.at[i].Sub(from) {
			i--
		}
		lo, hi = i, i+1
	}
	return (s.speed[hi] - s.speed[lo]) / float64(hi-lo)
}

// check refuses a window the kernel ran in less than a quarter as often as
// it should have: its times could not be corrected.
func (s *speedometer) check(from, to time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to) })
	if want := int(to.Sub(from) / speedEvery / 4); hi-lo < want {
		return fmt.Errorf("speedometer: %d kernel runs in the window, want at least %d (first error: %v)", hi-lo, want, s.err)
	}
	return nil
}

// timed is one measured duration and when it ended.
type timed struct {
	d   time.Duration
	end time.Time
}

// corrected scales a measured duration to reference speed. A nil
// speedometer leaves it as measured.
func (s *speedometer) corrected(x timed) time.Duration {
	if s == nil {
		return x.d
	}
	return time.Duration(float64(x.d) * s.over(x.end.Add(-x.d), x.end))
}
