package core

import (
	"fmt"
	"math/rand"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/cipherinfo"
	"sslperf/internal/des"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/rc4"
	"sslperf/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig3",
		Title:    "Key setup share of encryption vs data size",
		PaperRef: "RC4 28.5% at 1KB; block ciphers 1.0-3.6%; all falling with size",
		Run:      runFig3,
	})
	register(&Experiment{
		ID:       "table4",
		Title:    "Important data structures and characteristics",
		PaperRef: "block/key sizes, key schedules, tables, rounds, lookups",
		Run:      runTable4,
	})
	register(&Experiment{
		ID:       "table5",
		Title:    "AES execution time breakdown",
		PaperRef: "main rounds 71% (128-bit) / 78% (256-bit)",
		Run:      runTable5,
	})
	register(&Experiment{
		ID:       "table6",
		Title:    "DES/3DES execution time breakdown",
		PaperRef: "substitution 74.7% (DES) / 89.1% (3DES)",
		Run:      runTable6,
	})
}

// freshKeys returns 1,024 PRNG-drawn keys of keyLen bytes. A set-up
// loop rotates through them: every connection brings a fresh key, and
// re-keying with one fixed key times a branch predictor trained on it
// instead (a 5.5x gap on 3DES while its schedule branched on key bits).
func freshKeys(keyLen int) [][]byte {
	r := rand.New(rand.NewSource(int64(keyLen)))
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = make([]byte, keyLen)
		r.Read(keys[i])
	}
	return keys
}

// keySetupShare measures one cipher's key-setup fraction when
// encrypting dataSize bytes: time(n setups, each with a fresh key) vs
// time(n setups + n encryptions of dataSize). One untimed pass over
// the keys and one encryption warm the caches and the allocator first,
// as a running server has them; otherwise the first size measured
// carries the cold start.
func keySetupShare(setup func(key []byte), keyLen int, encrypt func(data []byte), dataSize, n int) float64 {
	data := workload.Payload(dataSize)
	keys := freshKeys(keyLen)
	for _, k := range keys {
		setup(k)
	}
	encrypt(data)
	start := time.Now()
	for i := 0; i < n; i++ {
		setup(keys[i%len(keys)])
	}
	setupTime := time.Since(start)
	start = time.Now()
	for i := 0; i < n; i++ {
		encrypt(data)
	}
	encTime := time.Since(start)
	return 100 * float64(setupTime) / float64(setupTime+encTime)
}

func runFig3(cfg *Config) (*Report, error) {
	n := cfg.scale(2000)
	// Each encryption runs on one cipher (for RC4, one persistent
	// stream), so the setup cost is only in the setup measurement.
	cases := []struct {
		name   string
		keyLen int
		setup  func(key []byte)
	}{
		{"AES", 16, func(k []byte) { aes.New(k) }},
		{"DES", 8, func(k []byte) { des.New(k) }},
		{"3DES", 24, func(k []byte) { des.NewTriple(k) }},
		{"RC4", 16, func(k []byte) { rc4.New(k) }},
	}

	t := perf.NewTable("Figure 3: key setup percentage during encryption",
		"data size", "AES %", "DES %", "3DES %", "RC4 %")
	for _, size := range workload.FileSweep() {
		row := []string{fmt.Sprintf("%dKB", size/1024)}
		for _, c := range cases {
			encrypt := pathlen.Lookup(c.name).Run()
			row = append(row, fmt.Sprintf("%.1f", keySetupShare(c.setup, c.keyLen, encrypt, size, n)))
		}
		t.AddRow(row...)
	}
	return &Report{ID: "fig3", Title: "Key setup share", Tables: []*perf.Table{t},
		Notes: []string{
			"paper shape: RC4's 256-entry state-table setup dwarfs its per-byte kernel (28.5% at 1KB); block-cipher setup is small and all shares fall with data size",
		}}, nil
}

func runTable4(cfg *Config) (*Report, error) {
	t := perf.NewTable("Table 4: data structures and characteristics",
		"", "AES", "DES", "3DES", "RC4")
	chars := []cipherinfo.Characteristics{
		aes.Characteristics(), des.Characteristics(),
		des.TripleCharacteristics(), rc4.Characteristics(),
	}
	row := func(label string, get func(cipherinfo.Characteristics) string) {
		cells := []string{label}
		for _, c := range chars {
			cells = append(cells, get(c))
		}
		t.AddRow(cells...)
	}
	row("block size", func(c cipherinfo.Characteristics) string { return fmt.Sprintf("%db", c.BlockBits) })
	row("key size", func(c cipherinfo.Characteristics) string { return c.KeyBits + "b" })
	row("key schedule", func(c cipherinfo.Characteristics) string { return c.KeySchedule })
	row("tables", func(c cipherinfo.Characteristics) string { return c.Tables })
	row("rounds", func(c cipherinfo.Characteristics) string { return c.Rounds })
	row("table lookups", func(c cipherinfo.Characteristics) string { return fmt.Sprint(c.Lookups) })
	return &Report{ID: "table4", Title: "Cipher characteristics",
		Tables: []*perf.Table{t}}, nil
}

func runTable5(cfg *Config) (*Report, error) {
	n := cfg.scale(300000)
	c128, _ := aes.New(make([]byte, 16))
	c256, _ := aes.New(make([]byte, 32))
	b128 := c128.ProfileBlockParts(n)
	b256 := c256.ProfileBlockParts(n)
	paper := map[string][2]string{
		aes.PartLoadAddKey: {"12", "9"},
		aes.PartMainRounds: {"71", "78"},
		aes.PartFinalRound: {"17", "13"},
	}
	t := perf.NewTable("Table 5: AES block operation breakdown",
		"step", "128-bit %", "256-bit %", "paper 128 %", "paper 256 %")
	for i, name := range b128.Names() {
		t.AddRow(fmt.Sprintf("%d: %s", i+1, name),
			fmt.Sprintf("%.1f", b128.Percent(name)),
			fmt.Sprintf("%.1f", b256.Percent(name)),
			paper[name][0], paper[name][1])
	}
	return &Report{ID: "table5", Title: "AES breakdown", Tables: []*perf.Table{t}}, nil
}

func runTable6(cfg *Config) (*Report, error) {
	n := cfg.scale(300000)
	single, _ := des.New(make([]byte, 8))
	triple, _ := des.NewTriple(make([]byte, 24))
	bd := single.ProfileBlockParts(n)
	bt := triple.ProfileBlockParts(n)
	paper := map[string][2]string{
		des.PartIP:           {"13.2", "5.3"},
		des.PartSubstitution: {"74.7", "89.1"},
		des.PartFP:           {"12.1", "5.6"},
	}
	t := perf.NewTable("Table 6: DES/3DES block operation breakdown",
		"step", "DES %", "3DES %", "paper DES %", "paper 3DES %")
	for _, name := range bd.Names() {
		t.AddRow(name,
			fmt.Sprintf("%.1f", bd.Percent(name)),
			fmt.Sprintf("%.1f", bt.Percent(name)),
			paper[name][0], paper[name][1])
	}
	return &Report{ID: "table6", Title: "DES/3DES breakdown", Tables: []*perf.Table{t}}, nil
}
