package cpufeat

// cpuid is implemented in cpufeat_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// detect reads leaf 1 and, where the CPU has it, leaf 7.
func detect() Features {
	maxID, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxID >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	has := func(reg, bits uint32) bool { return reg&bits == bits }
	return Features{
		AES: has(ecx1, 1<<25|1<<9),                     // AES; SSSE3 for PSHUFB
		SHA: has(ebx7, 1<<29) && has(ecx1, 1<<19|1<<9), // SHA; SSE4.1 for PINSRD, SSSE3
		ADX: has(ebx7, 1<<19|1<<8),                     // ADX; BMI2 for MULX
	}
}
