package vmcpu

import (
	"fmt"
	"math"
	"math/rand"
)

// Branch-site identifiers. Each static conditional branch in a kernel has
// a distinct site so the 1-bit predictor behaves per-branch, as on real
// hardware.
const (
	siteQsortCmp = iota
	siteQsortRecurseLeft
	siteQsortRecurseRight
	siteCornerThresh
	siteCornerNMS
	siteEdgeThresh
	siteEdgeThin
	siteSmoothBlockBusy
	siteEpicQuantZero
	siteEpicRunFlush
)

// QSort is the «qsort» benchmark of the paper's Table I: quicksort over a
// random array of K elements. Average behaviour is Θ(K log K) while the
// static worst case is Θ(K²), so the ACET/WCET^pes gap widens with K —
// exactly the observation the paper's motivational example makes.
type QSort struct {
	// K is the input array length (10, 100 and 10000 in the paper).
	K int
	// TailProb is the probability that an instance receives a
	// partially-sorted input, degrading the pivot choice and fattening
	// the right tail of the distribution. Defaults to 0.03 when zero.
	TailProb float64
	// TailChunk bounds the length of the sorted run planted in tail
	// instances (so the tail stays a mild multiple of the average case
	// and very large K stays simulable). Defaults to min(K, 4·√K) when
	// zero.
	TailChunk int
}

// Name implements Program.
func (q QSort) Name() string { return fmt.Sprintf("qsort-%d", q.K) }

func (q QSort) tailProb() float64 {
	if q.TailProb == 0 {
		return 0.03
	}
	return q.TailProb
}

func (q QSort) tailChunk() int {
	c := q.TailChunk
	if c == 0 {
		c = int(4 * math.Sqrt(float64(q.K)))
	}
	if c > q.K {
		c = q.K
	}
	return c
}

// Run implements Program.
func (q QSort) Run(m *Machine, r *rand.Rand) float64 {
	arr := make([]int32, q.K)
	for i := range arr {
		arr[i] = int32(r.Intn(1 << 20))
	}
	if r.Float64() < q.tailProb() {
		// Plant a sorted run: adversarial for last-element-pivot Lomuto.
		c := q.tailChunk()
		start := 0
		if q.K > c {
			start = r.Intn(q.K - c)
		}
		base := int32(r.Intn(1 << 10))
		for i := 0; i < c; i++ {
			arr[start+i] = base + int32(i)
		}
	}
	return q.Sort(m, arr)
}

// Sort resets m, sorts a in place with the instrumented quicksort and
// returns the cycles it consumed. It is the measured part of Run, open to
// chosen inputs (sorted, reverse, all-equal) that the generator rarely
// draws.
func (q QSort) Sort(m *Machine, a []int32) float64 {
	m.Reset()
	quicksort(m, a, m.Alloc(int64(len(a))), 0, len(a)-1)
	return m.Cycles()
}

// quicksort is an instrumented Lomuto-partition quicksort with the last
// element as pivot.
func quicksort(m *Machine, a []int32, base int64, lo, hi int) {
	m.Call()
	defer m.Ret()
	m.ALU(1) // lo < hi comparison
	if lo >= hi {
		return
	}
	// Partition.
	m.Load(base + int64(hi)) // pivot load
	pivot := a[hi]
	i := lo - 1
	m.ALU(1)
	for j := lo; j < hi; j++ {
		m.ALU(1)                // loop bound check
		m.Load(base + int64(j)) // a[j]
		m.ALU(1)                // compare with pivot
		taken := a[j] <= pivot
		m.Branch(siteQsortCmp, taken)
		if taken {
			i++
			m.ALU(1)
			m.Load(base + int64(i))
			m.Load(base + int64(j))
			m.Store(base + int64(i))
			m.Store(base + int64(j))
			a[i], a[j] = a[j], a[i]
		}
	}
	p := i + 1
	m.ALU(1)
	m.Load(base + int64(p))
	m.Load(base + int64(hi))
	m.Store(base + int64(p))
	m.Store(base + int64(hi))
	a[p], a[hi] = a[hi], a[p]

	m.Branch(siteQsortRecurseLeft, p-1 > lo)
	quicksort(m, a, base, lo, p-1)
	m.Branch(siteQsortRecurseRight, p+1 < hi)
	quicksort(m, a, base, p+1, hi)
}

// Image is a W×H grayscale raster of int32 intensities used as kernel
// input.
type Image struct {
	W, H int
	Pix  []int32
}

// At returns the intensity at (x, y) without instrumentation (input
// generation is not part of the measured job).
func (im *Image) At(x, y int) int32 { return im.Pix[y*im.W+x] }

// GenImage synthesises a random W×H test image: a handful of intensity
// blobs over noise. The number of blobs, their sharpness and the noise
// amplitude vary per instance, so downstream kernels see realistic
// input-dependent work.
func GenImage(r *rand.Rand, w, h int) *Image {
	im := &Image{W: w, H: h, Pix: make([]int32, w*h)}
	noise := int32(1 + r.Intn(24))
	for i := range im.Pix {
		im.Pix[i] = int32(r.Intn(int(noise + 1)))
	}
	blobs := 1 + r.Intn(8)
	for b := 0; b < blobs; b++ {
		cx, cy := r.Intn(w), r.Intn(h)
		rad := 2 + r.Intn(w/4+1)
		amp := int32(60 + r.Intn(195))
		for y := cy - rad; y <= cy+rad; y++ {
			if y < 0 || y >= h {
				continue
			}
			for x := cx - rad; x <= cx+rad; x++ {
				if x < 0 || x >= w {
					continue
				}
				dx, dy := x-cx, y-cy
				d2 := dx*dx + dy*dy
				if d2 > rad*rad {
					continue
				}
				v := im.Pix[y*w+x] + amp*int32(rad*rad-d2)/int32(rad*rad)
				if v > 255 {
					v = 255
				}
				im.Pix[y*w+x] = v
			}
		}
	}
	return im
}

// Corner is the «corner» benchmark: a Harris-style corner detector.
// Per-pixel gradient products feed a corner response; pixels above a
// threshold trigger extra non-maximum-suppression work, so the cycle count
// depends on image content.
type Corner struct {
	// W, H are the image dimensions. Defaults to 32×32 when zero.
	W, H int
	// Thresh is the corner-response threshold. Defaults to 5000.
	Thresh int64
}

// Name implements Program.
func (c Corner) Name() string { return "corner" }

func (c Corner) dims() (int, int) {
	w, h := c.W, c.H
	if w == 0 {
		w = 32
	}
	if h == 0 {
		h = 32
	}
	return w, h
}

func (c Corner) thresh() int64 {
	if c.Thresh == 0 {
		return 5000
	}
	return c.Thresh
}

// Run implements Program.
func (c Corner) Run(m *Machine, r *rand.Rand) float64 {
	m.Reset()
	w, h := c.dims()
	im := GenImage(r, w, h)
	base := m.Alloc(int64(w * h))
	gxBase := m.Alloc(int64(w * h))
	gyBase := m.Alloc(int64(w * h))
	respBase := m.Alloc(int64(w * h))
	gxA := make([]int64, w*h)
	gyA := make([]int64, w*h)
	resp := make([]int64, w*h)
	thr := c.thresh()

	// Pass 1: central-difference gradients.
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			m.ALU(2) // loop bookkeeping
			idx := int64(y*w + x)
			m.Load(base + idx - 1)
			m.Load(base + idx + 1)
			m.Load(base + idx - int64(w))
			m.Load(base + idx + int64(w))
			m.ALU(2) // gradient subtractions
			gxA[idx] = int64(im.At(x+1, y) - im.At(x-1, y))
			gyA[idx] = int64(im.At(x, y+1) - im.At(x, y-1))
			m.Store(gxBase + idx)
			m.Store(gyBase + idx)
		}
	}
	// Pass 2: windowed structure tensor and Harris response. Without the
	// 3×3 window the tensor is rank-1 and the response degenerates.
	for y := 2; y < h-2; y++ {
		for x := 2; x < w-2; x++ {
			m.ALU(2)
			idx := int64(y*w + x)
			var sxx, syy, sxy int64
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nIdx := idx + int64(dy*w+dx)
					m.Load(gxBase + nIdx)
					m.Load(gyBase + nIdx)
					m.MulOp(3) // gx², gy², gx·gy
					m.ALU(3)   // accumulate
					gx, gy := gxA[nIdx], gyA[nIdx]
					sxx += gx * gx
					syy += gy * gy
					sxy += gx * gy
				}
			}
			// det − k·trace² with k ≈ 1/16 via shifts, rescaled to keep
			// magnitudes comparable across window sizes.
			m.MulOp(2)
			m.ALU(3)
			rv := (sxx*syy - sxy*sxy - ((sxx+syy)*(sxx+syy))>>4) >> 10
			resp[idx] = rv
			m.Store(respBase + idx)
		}
	}
	// Pass 3: threshold + 3×3 non-maximum suppression on hot pixels.
	corners := 0
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			m.ALU(2)
			idx := int64(y*w + x)
			m.Load(respBase + idx)
			hot := resp[idx] > thr
			m.Branch(siteCornerThresh, hot)
			if !hot {
				continue
			}
			isMax := true
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					m.Load(respBase + idx + int64(dy*w+dx))
					m.ALU(1)
					if resp[idx+int64(dy*w+dx)] > resp[idx] {
						isMax = false
					}
				}
			}
			m.Branch(siteCornerNMS, isMax)
			if isMax {
				corners++
				m.ALU(1)
			}
		}
	}
	_ = corners
	return m.Cycles()
}

// Edge is the «edge» benchmark: a Sobel edge detector with data-dependent
// edge thinning.
type Edge struct {
	// W, H are the image dimensions. Defaults to 32×32 when zero.
	W, H int
	// Thresh is the gradient-magnitude threshold. Defaults to 96.
	Thresh int32
}

// Name implements Program.
func (e Edge) Name() string { return "edge" }

func (e Edge) dims() (int, int) {
	w, h := e.W, e.H
	if w == 0 {
		w = 32
	}
	if h == 0 {
		h = 32
	}
	return w, h
}

func (e Edge) thresh() int32 {
	if e.Thresh == 0 {
		return 96
	}
	return e.Thresh
}

// Run implements Program.
func (e Edge) Run(m *Machine, r *rand.Rand) float64 {
	m.Reset()
	w, h := e.dims()
	im := GenImage(r, w, h)
	base := m.Alloc(int64(w * h))
	magBase := m.Alloc(int64(w * h))
	mag := make([]int32, w*h)
	thr := e.thresh()

	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			m.ALU(2)
			idx := int64(y*w + x)
			// 3×3 neighbourhood loads.
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					m.Load(base + idx + int64(dy*w+dx))
				}
			}
			// Sobel MACs: 6 multiplies by ±2 kernels, 10 adds.
			m.MulOp(6)
			m.ALU(10)
			gx := int32(im.At(x+1, y-1)) + 2*int32(im.At(x+1, y)) + int32(im.At(x+1, y+1)) -
				int32(im.At(x-1, y-1)) - 2*int32(im.At(x-1, y)) - int32(im.At(x-1, y+1))
			gy := int32(im.At(x-1, y+1)) + 2*int32(im.At(x, y+1)) + int32(im.At(x+1, y+1)) -
				int32(im.At(x-1, y-1)) - 2*int32(im.At(x, y-1)) - int32(im.At(x+1, y-1))
			m.ALU(4) // |gx| + |gy|
			g := gx
			if g < 0 {
				g = -g
			}
			if gy < 0 {
				gy = -gy
			}
			g += gy
			mag[idx] = g
			m.Store(magBase + idx)

			strong := g > thr
			m.Branch(siteEdgeThresh, strong)
			if strong {
				// Thinning: keep only local maxima along the row.
				m.Load(magBase + idx - 1)
				m.ALU(2)
				thin := mag[idx-1] < g
				m.Branch(siteEdgeThin, thin)
				if thin {
					m.Store(magBase + idx)
				}
			}
		}
	}
	return m.Cycles()
}

// Smooth is the «smooth» benchmark: block-adaptive Gaussian smoothing.
// Blocks whose variance is below a threshold are copied; busy blocks
// receive a full 5×5 convolution, so the work per image swings widely with
// content — the paper's smooth task has the largest σ/ACET ratio of its
// benchmark set.
type Smooth struct {
	// W, H are the image dimensions. Defaults to 32×32 when zero.
	W, H int
	// Block is the adaptive block size. Defaults to 8.
	Block int
	// VarThresh is the per-block variance threshold. Defaults to 150.
	VarThresh int64
}

// Name implements Program.
func (s Smooth) Name() string { return "smooth" }

func (s Smooth) dims() (int, int) {
	w, h := s.W, s.H
	if w == 0 {
		w = 32
	}
	if h == 0 {
		h = 32
	}
	return w, h
}

func (s Smooth) block() int {
	if s.Block == 0 {
		return 8
	}
	return s.Block
}

func (s Smooth) varThresh() int64 {
	if s.VarThresh == 0 {
		return 150
	}
	return s.VarThresh
}

// Run implements Program.
func (s Smooth) Run(m *Machine, r *rand.Rand) float64 {
	m.Reset()
	w, h := s.dims()
	im := GenImage(r, w, h)
	base := m.Alloc(int64(w * h))
	outBase := m.Alloc(int64(w * h))
	bs := s.block()
	thr := s.varThresh()

	for by := 0; by < h; by += bs {
		for bx := 0; bx < w; bx += bs {
			// Block variance (integer, scaled by count²).
			var sum, sum2 int64
			count := int64(0)
			for y := by; y < by+bs && y < h; y++ {
				for x := bx; x < bx+bs && x < w; x++ {
					m.Load(base + int64(y*w+x))
					m.ALU(2)
					m.MulOp(1)
					v := int64(im.At(x, y))
					sum += v
					sum2 += v * v
					count++
				}
			}
			m.MulOp(2)
			m.DivOp(1)
			m.ALU(2)
			busy := count > 0 && sum2*count-sum*sum > thr*count*count
			m.Branch(siteSmoothBlockBusy, busy)
			if !busy {
				// Copy block.
				for y := by; y < by+bs && y < h; y++ {
					for x := bx; x < bx+bs && x < w; x++ {
						m.Load(base + int64(y*w+x))
						m.Store(outBase + int64(y*w+x))
					}
				}
				continue
			}
			// 5×5 Gaussian convolution over the block.
			for y := by; y < by+bs && y < h; y++ {
				for x := bx; x < bx+bs && x < w; x++ {
					acc := int64(0)
					for dy := -2; dy <= 2; dy++ {
						for dx := -2; dx <= 2; dx++ {
							yy, xx := y+dy, x+dx
							if yy < 0 {
								yy = 0
							}
							if yy >= h {
								yy = h - 1
							}
							if xx < 0 {
								xx = 0
							}
							if xx >= w {
								xx = w - 1
							}
							m.Load(base + int64(yy*w+xx))
							m.MulOp(1)
							m.ALU(1)
							acc += int64(im.At(xx, yy))
						}
					}
					m.DivOp(1)
					m.Store(outBase + int64(y*w+x))
					_ = acc
				}
			}
		}
	}
	return m.Cycles()
}

// Epic is the «epic» benchmark: an EPIC-style pyramid image coder. It
// builds a multi-level Haar average/detail pyramid, quantises detail
// coefficients and run-length encodes the zero runs; the encoding work is
// strongly content-dependent, giving epic the longest ACET/WCET^pes gap in
// the paper's set.
type Epic struct {
	// W, H are the image dimensions; both must be powers of two for the
	// pyramid. Defaults to 32×32 when zero.
	W, H int
	// Levels is the pyramid depth. Defaults to 4.
	Levels int
	// QShift is the quantisation shift. Defaults to 4.
	QShift uint
}

// Name implements Program.
func (e Epic) Name() string { return "epic" }

func (e Epic) dims() (int, int) {
	w, h := e.W, e.H
	if w == 0 {
		w = 32
	}
	if h == 0 {
		h = 32
	}
	return w, h
}

func (e Epic) levels() int {
	if e.Levels == 0 {
		return 4
	}
	return e.Levels
}

func (e Epic) qshift() uint {
	if e.QShift == 0 {
		return 4
	}
	return e.QShift
}

// Run implements Program.
func (e Epic) Run(m *Machine, r *rand.Rand) float64 {
	m.Reset()
	w, h := e.dims()
	im := GenImage(r, w, h)
	cur := im.Pix
	cw, ch := w, h
	curBase := m.Alloc(int64(w * h))

	for lvl := 0; lvl < e.levels() && cw >= 2 && ch >= 2; lvl++ {
		nw, nh := cw/2, ch/2
		nextBase := m.Alloc(int64(nw * nh))
		detailBase := m.Alloc(int64(3 * nw * nh))
		next := make([]int32, nw*nh)
		details := make([]int32, 0, 3*nw*nh)

		// Haar decompose: average + 3 detail bands.
		for y := 0; y < nh; y++ {
			for x := 0; x < nw; x++ {
				m.ALU(2)
				i00 := int64(2*y*cw + 2*x)
				m.Load(curBase + i00)
				m.Load(curBase + i00 + 1)
				m.Load(curBase + i00 + int64(cw))
				m.Load(curBase + i00 + int64(cw) + 1)
				a := cur[2*y*cw+2*x]
				b := cur[2*y*cw+2*x+1]
				c := cur[(2*y+1)*cw+2*x]
				d := cur[(2*y+1)*cw+2*x+1]
				m.ALU(8)
				avg := (a + b + c + d) / 4
				dh := (a + c - b - d) / 2
				dv := (a + b - c - d) / 2
				dd := (a + d - b - c) / 2
				next[y*nw+x] = avg
				m.Store(nextBase + int64(y*nw+x))
				m.Store(detailBase + int64(3*(y*nw+x)))
				m.Store(detailBase + int64(3*(y*nw+x)+1))
				m.Store(detailBase + int64(3*(y*nw+x)+2))
				details = append(details, dh, dv, dd)
			}
		}

		// Quantise + run-length encode detail bands.
		run := 0
		outBase := m.Alloc(int64(len(details)))
		outIdx := int64(0)
		for i, dv := range details {
			m.Load(detailBase + int64(i))
			m.ALU(2) // shift + sign handling
			q := dv >> e.qshift()
			if dv < 0 {
				q = -((-dv) >> e.qshift())
			}
			zero := q == 0
			m.Branch(siteEpicQuantZero, zero)
			if zero {
				run++
				m.ALU(1)
				continue
			}
			flush := run > 0
			m.Branch(siteEpicRunFlush, flush)
			if flush {
				m.Store(outBase + outIdx) // run token
				outIdx++
				run = 0
			}
			// Variable-length emit: magnitude bits cost ALU work.
			mag := q
			if mag < 0 {
				mag = -mag
			}
			bits := 1
			for v := mag; v != 0; v >>= 1 {
				bits++
				m.ALU(1)
			}
			m.Store(outBase + outIdx)
			outIdx++
		}
		cur, cw, ch, curBase = next, nw, nh, nextBase
	}
	return m.Cycles()
}
