//go:build !amd64

package bn

// mulX and sqrX name the MULX/ADCX/ADOX forms; off amd64 no Mont
// selects them (cpufeat.X86.ADX is false, so adx is never set), and
// they are the CIOS loops.
func (m *Mont) mulX(z, x, y, t []uint64) { m.mulCIOS(z, x, y, t) }

func (m *Mont) sqrX(z, x, t []uint64) { m.sqrCIOS(z, x, t) }

// selectEntry copies table entry w into dst for exp64, reading every
// entry.
func (m *Mont) selectEntry(dst, table []uint64, w uint) { selectEntry(dst, table, w) }
