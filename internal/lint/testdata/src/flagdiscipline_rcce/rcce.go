// Dependency of the flagdiscipline fixture, loaded as vscc/internal/rcce:
// the raw flag-address helper a package-qualified call must count for.
package rcce

func FlagByteAt(kind, peer int) int { return 0 }
