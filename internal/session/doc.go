// Package session holds the end-to-end tests of one analyst's session
// (the problem statement of Figure 2) and no code of its own: the
// session is rdfcube.Session, which is viewreg.Registry. Each test asks
// a sequence of analytical queries of one registry and checks both the
// strategy that answered each query and the cube against direct
// evaluation.
package session
