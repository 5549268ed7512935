package telemetry

import (
	"fmt"
	"strings"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/sha1x"
)

// The registry is also the one live fold of the paper's Table 11. A
// connection's record counts each record-layer cipher and MAC pass in
// its running totals (IOCounts.Crypto), which fold at close and are
// read live like the byte counters; /debug/pathlength renders the sum
// as cycles/byte and bytes/op, each row naming the kernel that ran.
// The in-step side rides the step timeline into /debug/anatomy.
//
// There is no live instructions/byte: the abstract-instruction model
// (package pathlen) describes the table and scalar kernels the paper
// traced, so measured cycles divided by its CPI describes no code that
// ran on a CPU with AES-NI or the SHA extensions.

// Primitive rows of the crypto cells: every primitive the suite
// registry can name, the stitched AES-CBC + SHA-1 seal (one event for
// cipher and MAC, record.PrimAESSHA1), and a catchall for a name with
// no row yet (visible, not silently dropped).
const (
	primRC4 = iota
	primAES
	primDES
	prim3DES
	primNULL
	primMD5
	primSHA1
	primAESSHA1
	primOther
	numPrims
)

var primNames = [numPrims]string{"RC4", "AES", "DES", "3DES", "NULL", "MD5", "SHA-1", "AES+SHA-1", "other"}

// primIndex interns a primitive name onto its row. A linear scan over
// nine entries beats a map on the per-record path and needs no hashing.
func primIndex(name string) int {
	for i, n := range primNames {
		if n == name {
			return i
		}
	}
	return primOther
}

// primKernel names the kernel a primitive row ran on, for the
// primitives that have more than one.
func primKernel(p int) string {
	switch p {
	case primAES:
		return aes.Kernel()
	case primSHA1:
		return sha1x.Kernel()
	case primAESSHA1:
		return aessha1.Kernel()
	}
	return ""
}

// numOps covers probe's four RecordOps.
const numOps = int(probe.OpMACVerify) + 1

// A CryptoCell accumulates record-crypto passes: how many, over how
// many bytes, in how much time.
type CryptoCell struct {
	Ops   uint64 `json:"ops"`
	Bytes uint64 `json:"bytes"`
	Nanos uint64 `json:"nanos"`
}

// Count adds one record-crypto pass (a probe.KindRecordCrypto event).
func (c *CryptoCell) Count(e probe.Event) {
	c.Ops++
	c.Bytes += uint64(e.Bytes)
	c.Nanos += uint64(e.Dur)
}

func (c *CryptoCell) add(o CryptoCell) {
	c.Ops += o.Ops
	c.Bytes += o.Bytes
	c.Nanos += o.Nanos
}

func (c CryptoCell) sub(o CryptoCell) CryptoCell {
	return CryptoCell{Ops: c.Ops - o.Ops, Bytes: c.Bytes - o.Bytes, Nanos: c.Nanos - o.Nanos}
}

// CyclesPerByte is the cell's intensity at the model clock (0 with no
// bytes).
func (c CryptoCell) CyclesPerByte() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return perf.Cycles(time.Duration(c.Nanos)) / float64(c.Bytes)
}

// CryptoCounts is the record-crypto part of a connection's running
// totals: a cell per (primitive, operation), and Bulk, the passes
// outside any handshake step.
type CryptoCounts struct {
	Prims [numPrims][numOps]CryptoCell
	Bulk  CryptoCell
}

// Count adds one record-crypto pass to its primitive's cell, and to
// Bulk when it ran outside any handshake step.
func (c *CryptoCounts) Count(e probe.Event) {
	if int(e.Op) < numOps {
		c.Prims[primIndex(e.Prim)][e.Op].Count(e)
	}
	if e.Step == probe.StepNone {
		c.Bulk.Count(e)
	}
}

func (c *CryptoCounts) add(o *CryptoCounts) {
	for p := range c.Prims {
		for op := range c.Prims[p] {
			c.Prims[p][op].add(o.Prims[p][op])
		}
	}
	c.Bulk.add(o.Bulk)
}

func (c *CryptoCounts) sub(o *CryptoCounts) (d CryptoCounts) {
	for p := range c.Prims {
		for op := range c.Prims[p] {
			d.Prims[p][op] = c.Prims[p][op].sub(o.Prims[p][op])
		}
	}
	d.Bulk = c.Bulk.sub(o.Bulk)
	return d
}

// Groups sums the cells into the live gauges' three groups, in order:
// cipher (RC4, AES, DES, 3DES, NULL), MAC (MD5, SHA-1) and the stitched
// AES+SHA-1 seal. "other" is in none.
func (c *CryptoCounts) Groups() (g [3]CryptoCell) {
	for p := primRC4; p <= primAESSHA1; p++ {
		i := 0
		if p == primAESSHA1 {
			i = 2
		} else if p >= primMD5 {
			i = 1
		}
		for op := range c.Prims[p] {
			g[i].add(c.Prims[p][op])
		}
	}
	return g
}

// OpStat is one (primitive, operation) cell of /debug/pathlength.
type OpStat struct {
	Op string `json:"op"`
	CryptoCell
}

// PrimRow is one live Table 11 row: a primitive's (or the bulk
// transfer's) measured intensity, on the kernel it names.
type PrimRow struct {
	Name   string `json:"name"`
	Kernel string `json:"kernel,omitempty"`
	CryptoCell

	BytesPerOp    float64 `json:"bytes_per_op"`
	CyclesPerByte float64 `json:"cycles_per_byte"`
	MBps          float64 `json:"mbps"`

	ByOp []OpStat `json:"by_op,omitempty"`
}

// A Pathlength is the /debug/pathlength body: the continuous Table 11,
// with each primitive's operations and the bulk transfer's share.
type Pathlength struct {
	At       time.Time `json:"at"`
	ModelGHz float64   `json:"model_ghz"`
	Prims    []PrimRow `json:"primitives,omitempty"`
	// Bulk is the record crypto outside any handshake step, over every
	// primitive; the in-step rest is /debug/anatomy's per-step crypto.
	Bulk *PrimRow `json:"bulk,omitempty"`
}

// primRow fills a row's rates from its cell.
func primRow(name, kernel string, cell CryptoCell) PrimRow {
	row := PrimRow{Name: name, Kernel: kernel, CryptoCell: cell, CyclesPerByte: cell.CyclesPerByte()}
	if cell.Ops > 0 {
		row.BytesPerOp = float64(cell.Bytes) / float64(cell.Ops)
	}
	if cell.Nanos > 0 {
		row.MBps = float64(cell.Bytes) * 1e3 / float64(cell.Nanos)
	}
	return row
}

// Pathlength renders the registry's record crypto, open connections
// included. Rows with no traffic are left out.
func (r *Registry) Pathlength() Pathlength {
	s := Pathlength{At: time.Now(), ModelGHz: perf.ModelGHz} // lint:allow-clock
	c := r.Counts().Crypto
	for p := range c.Prims {
		var sum CryptoCell
		var ops []OpStat
		for op, cell := range c.Prims[p] {
			if cell.Ops > 0 {
				sum.add(cell)
				ops = append(ops, OpStat{Op: probe.RecordOp(op).String(), CryptoCell: cell})
			}
		}
		if sum.Ops > 0 {
			row := primRow(primNames[p], primKernel(p), sum)
			row.ByOp = ops
			s.Prims = append(s.Prims, row)
		}
	}
	if c.Bulk.Ops > 0 {
		bulk := primRow(probe.LabelBulk, "", c.Bulk)
		s.Bulk = &bulk
	}
	return s
}

// Prim returns the named primitive's row, if it saw traffic.
func (s Pathlength) Prim(name string) (PrimRow, bool) {
	for _, r := range s.Prims {
		if r.Name == name {
			return r, true
		}
	}
	return PrimRow{}, false
}

// Text renders the page as aligned tables: per primitive, per
// operation, and the bulk transfer.
func (s Pathlength) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "live path length (model %.2f GHz; measured on the kernels that ran)\n\n", s.ModelGHz)
	prims := perf.NewTable("per-primitive path length (continuous Table 11)",
		"primitive", "kernel", "ops", "bytes", "B/op", "MB/s", "cyc/B")
	ops := perf.NewTable("per operation", "primitive", "op", "ops", "bytes", "cyc/B")
	for _, r := range s.Prims {
		kernel := r.Kernel
		if kernel == "" {
			kernel = "-"
		}
		prims.AddRow(r.Name, kernel, fmt.Sprint(r.Ops), fmt.Sprint(r.Bytes),
			fmt.Sprintf("%.1f", r.BytesPerOp), fmt.Sprintf("%.1f", r.MBps),
			fmt.Sprintf("%.1f", r.CyclesPerByte))
		for _, o := range r.ByOp {
			ops.AddRow(r.Name, o.Op, fmt.Sprint(o.Ops), fmt.Sprint(o.Bytes),
				fmt.Sprintf("%.1f", o.CyclesPerByte()))
		}
	}
	sb.WriteString(prims.String())
	if len(s.Prims) > 0 {
		sb.WriteByte('\n')
		sb.WriteString(ops.String())
	}
	if b := s.Bulk; b != nil {
		sb.WriteByte('\n')
		bulk := perf.NewTable("bulk transfer (record crypto outside any handshake step)",
			"row", "ops", "bytes", "B/op", "MB/s", "cyc/B")
		bulk.AddRow(b.Name, fmt.Sprint(b.Ops), fmt.Sprint(b.Bytes),
			fmt.Sprintf("%.1f", b.BytesPerOp), fmt.Sprintf("%.1f", b.MBps),
			fmt.Sprintf("%.1f", b.CyclesPerByte))
		sb.WriteString(bulk.String())
	}
	return sb.String()
}
