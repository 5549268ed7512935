// Package cpufeat is the one table of the CPU features the assembly
// kernels need, read by one CPUID routine after the idiom of the Go
// runtime's internal/cpu. Each field is one kernel's whole requirement.
package cpufeat

// Features names the assembly forms a CPU can run.
type Features struct {
	AES bool // AES-NI and SSSE3: aes's AESENC/AESDEC CBC
	SHA bool // SHA, SSE4.1 and SSSE3: sha1x's SHA1RNDS4 block
	ADX bool // ADX and BMI2: bn's MULX/ADCX/ADOX Montgomery rows
}

// X86 is what the kernels read, when their object is built (or, in
// aessha1, per call): what this CPU reports, every field false off
// amd64, less what Disable has masked.
var X86 = detect()

// Disable masks the features set in off from X86 until the returned
// function puts X86 back. It is for tests and experiments, and is not
// safe while connections run: mask before the objects are built. A
// mask only takes features away, so no kernel runs on an instruction
// the CPU lacks.
func Disable(off Features) (restore func()) {
	old := X86
	X86 = Features{AES: old.AES && !off.AES, SHA: old.SHA && !off.SHA, ADX: old.ADX && !off.ADX}
	return func() { X86 = old }
}
