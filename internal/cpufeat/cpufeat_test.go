package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestDisableMasksAndRestores: a mask takes away exactly the features
// it names, never adds one the table lacks, and each restore puts back
// the table it found, innermost first.
func TestDisableMasksAndRestores(t *testing.T) {
	orig := X86
	defer func() { X86 = orig }()
	X86 = Features{AES: true, SHA: false, ADX: true}
	restoreAES := Disable(Features{AES: true, SHA: true})
	if want := (Features{ADX: true}); X86 != want {
		t.Fatalf("after masking AES and SHA: %+v, want %+v", X86, want)
	}
	restoreAll := Disable(Features{AES: true, SHA: true, ADX: true})
	if X86 != (Features{}) {
		t.Fatalf("after masking everything: %+v", X86)
	}
	restoreAll()
	if want := (Features{ADX: true}); X86 != want {
		t.Fatalf("after the inner restore: %+v, want %+v", X86, want)
	}
	restoreAES()
	if want := (Features{AES: true, ADX: true}); X86 != want {
		t.Fatalf("after the outer restore: %+v, want %+v", X86, want)
	}
}

// TestDetectMatchesCPUInfo holds the CPUID decoding to the flags the
// Linux kernel reports for the same CPU in /proc/cpuinfo.
func TestDetectMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("/proc/cpuinfo flags are checked on linux/amd64")
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := Features{
		AES: flags["aes"] && flags["ssse3"],
		SHA: flags["sha_ni"] && flags["sse4_1"] && flags["ssse3"],
		ADX: flags["adx"] && flags["bmi2"],
	}
	if got := detect(); got != want {
		t.Fatalf("detect() = %+v, /proc/cpuinfo says %+v", got, want)
	}
}
