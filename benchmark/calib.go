package main

import (
	"strconv"
	"time"
)

// The box this benchmark runs on shares its cores: the time the same
// instructions take drifts by 20 % and more from one second to the next
// (an idle-box probe of the kernel below measured an interquartile spread
// of 21 % of its median). No statistic over a run's own samples removes
// that, because whole runs land in slow or fast phases. So the driver
// interleaves a fixed reference kernel with the workload — once every
// calibEvery steps — and reports every time-based end-to-end metric at
// reference speed: a sample is divided by the speed factor of its window,
// kernel time there ÷ kernelRefNS. A change to the code under test moves
// the workload and not the kernel, so it shows in full; a slow phase of
// the box moves both and cancels. Raw values are printed beside the
// normalised ones.

// calibEvery is the window length in steps.
const calibEvery = 20

// kernelRefNS is the kernel's median time on the box the benchmark was
// sized on. It only fixes the scale, so that normalised numbers read as
// that box's microseconds.
const kernelRefNS = 1.6e6

const (
	kernelKeys  = 4096
	kernelIters = 60000
)

var (
	kernelKey  [kernelKeys]string
	kernelMap  = make(map[string]int, kernelKeys)
	kernelBuf  [1 << 15]int64
	kernelSink int64
)

func init() {
	for i := range kernelKey {
		kernelKey[i] = "k" + strconv.Itoa(i*7919)
		kernelMap[kernelKey[i]] = i
	}
}

// kernel is the reference work: string-keyed map probes and strided
// writes over a 256 KiB buffer, the instruction mix of the engines'
// inner loops, with no allocation so it adds nothing to allocs_per_mod.
// It returns its own wall time in ns.
func kernel() float64 {
	start := time.Now()
	x := int64(1)
	for i := 0; i < kernelIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(uint64(x) >> 40)
		v := kernelMap[kernelKey[j%kernelKeys]]
		kernelBuf[(j+v)%len(kernelBuf)] += x
	}
	kernelSink += x
	return float64(time.Since(start))
}
