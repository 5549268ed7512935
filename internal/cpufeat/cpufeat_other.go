//go:build !amd64

package cpufeat

// detect reports no feature: off amd64 every kernel runs its portable
// form.
func detect() Features { return Features{} }
