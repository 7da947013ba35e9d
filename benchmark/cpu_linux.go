package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// pinToOneCPU restricts the process to the highest-numbered CPU it may run
// on and starts the program again in place, so the Go runtime sizes itself
// for one CPU and every thread and child process inherits the mask.
//
// Why: on the shared 2-vCPU reference box the host now and then schedules
// both vCPUs on one physical core. A run that keeps two threads busy then
// reads up to a quarter slower for tens of seconds, and a closed loop that
// lets a vCPU idle between ops pays the host's wake-up on every op. Two
// stations time-sharing one always-busy CPU repeat within a few percent
// (README, "One CPU and speed correction").
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread() // affinity is per thread, and exec keeps this thread's
	var mask [16]uint64    // cpu_set_t: 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu))
	return fmt.Errorf("exec %s: %w", self, syscall.Exec(self, os.Args, env))
}

// threadCPU is the CPU time the calling thread has used, to the
// nanosecond (getrusage only moves with the scheduler tick).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
