"""Frozen expected values, each derived from an oracle before being pinned.

Derivations (re-checked by the tests that use them):

* LOOP5_FIRST - first representative in enumeration order at order 5,
  unconstrained.  Derived facts: element 2 has left inverse 3 but right
  inverse 4; the table is nonassociative; its lexicographically first
  left-Bol violation is (1, 0, 2); its first LIP violation is (1, 2).
* LOOP6_NON_PA - first order-6 representative (enumeration order) that
  fails power-associativity; the bracketings of the fourth power of
  element 2 take the two values {2, 3} (bracketing oracle), and the
  generated-subloop route reports associativity witness (2, 2, 4).
* LOOP8_NUCLEAR_INVOLUTION - element 1 is an involution that commutes
  with every element and lies in the left nucleus ((1x)y = 1(xy)), so
  S = {0, 1} satisfies xS = Sx and (Sx)y = S(xy); but 4(4 * 1) = 2 is
  not in (4 * 4)S = {0, 1}, so x(yS) = (xy)S fails and S is not normal
  (set-definition oracle).  Its center is {0, 3}.  Found by a search
  over order-8 tables whose rows 1, 3, 5 and 7 are rows 0, 2, 4 and 6
  mapped through 0<->1, 2<->3, 4<->5, 6<->7.
* Class counts: unconstrained 1,1,1,2,6 for orders 1..5 match the
  generate-filter-partition oracle; 109 at order 6, group counts, and
  Bol counts were derived by exhaustive enumeration, cross-checked by
  transposition (right Bol classes = transposed left Bol classes) and
  by the property checkers re-verifying every representative.
* External anchor for LOOP_COUNTS[7] = 23746: McKay, Meynert and
  Myrvold, "Small Latin squares, quasigroups and loops", J. Combin.
  Des. 15 (2007), and OEIS A057771 (loops of order n up to isomorphism).
  The naive oracle is too slow at order 7, so this count rests on the
  published figure alone.
* External anchor for LEFT_BOL_COUNTS[8] = 11 and LEFT_BOL_8_NONASSOC = 6:
  Burn, "Finite Bol loops", Math. Proc. Camb. Phil. Soc. 84 (1978)
  classifies the Bol loops of order 8 as 5 groups and 6 nonassociative
  loops.  Acceptance criterion 4 relies on this count: its exhaustive
  order-8 right Bol hunt is cross-checked against all 11 classes.
* OUTPUT_PINS - (class count, SHA-256 of the concatenated flat tables
  of the representatives in sorted order) per (class, order).  Computed
  with the kernel's own right Bol scan, before right Bol became the
  mirror of the left Bol search and Moufang a left Bol scan of the table
  and of its transpose; the pins keep both changes byte-identical.
"""

LOOP5_FIRST = "5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n"

LOOP6_NON_PA = "6\n0 1 2 3 4 5\n1 0 3 2 5 4\n2 3 4 5 0 1\n3 2 5 4 1 0\n4 5 0 1 3 2\n5 4 1 0 2 3\n"

LOOP8_NUCLEAR_INVOLUTION = (
    "8\n0 1 2 3 4 5 6 7\n1 0 3 2 5 4 7 6\n2 3 0 1 6 7 4 5\n3 2 1 0 7 6 5 4\n"
    "4 5 6 7 0 2 1 3\n5 4 7 6 1 3 0 2\n6 7 4 5 2 0 3 1\n7 6 5 4 3 1 2 0\n"
)

LOOP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 6, 6: 109, 7: 23746}

GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}

LEFT_BOL_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 11}

LEFT_BOL_8_NONASSOC = 6

MOUFANG_8_COUNT = 5

LEFT_BOL_9_COUNT = 2

OUTPUT_PINS = {
    ("right-bol", 8): (11, "179c6dbf3a72dcab8134f4761a8279d5a3f4aedab93110904be4dea60bba3c8f"),
    ("right-bol", 9): (2, "657f8af866c11f8041322e34863bc011024d965b55793df1a036e113c65fd292"),
    ("moufang", 8): (5, "5178674b60d731981c364ba9079386b123440a64e3b4d6cf7fe97bc8283d124e"),
}
