// Dependency of the flagdiscipline fixture, loaded as
// example.test/notrcce: a same-named function the rule must not match.
package notrcce

func FlagByteAt(kind, peer int) int { return 0 }
