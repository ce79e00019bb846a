"""Register names of the marker's label assignment.

Every register holds O(log n) bits; together they form the node label of
the proof labeling scheme (plus the verifier's working registers defined
in :mod:`repro.trains` / :mod:`repro.verification`).
"""

# -- spanning tree (Example SP plus its remark) ----------------------------
REG_PARENT_ID = "pid"        # parent identity, None at the root
REG_PARENT_PORT = "pport"    # component c(v): port to the parent, None at root
REG_TID = "tid"              # identity of the root of T
REG_DIST = "dist"            # hop distance to the root in T

# -- node count (Example NumK) ---------------------------------------------
REG_N = "n"                  # claimed number of nodes
REG_SUBTREE = "st"           # nodes in the subtree of v

# -- hierarchy strings (Section 5) ------------------------------------------
REG_ELL = "ell"              # hierarchy height (all nodes agree)
REG_ROOTS = "roots"          # Roots string, chars {'1','0','*'}
REG_ENDP = "endp"            # EndP string, chars {'u','d','n','*'}
REG_PARENTS = "pstr"         # Parents string, chars {'0','1'}
REG_ORENDP = "orendp"        # Or-EndP capped counts, tuple of 0/1/2
REG_JMASK = "jmask"          # bitmask of J(v) (published for G-neighbours)
REG_DELIM = "delim"          # how many of v's levels are bottom (prefix)

# -- partitions Top / Bottom (Section 6) ------------------------------------
REG_TOP_ROOT = "trt"         # identity of the root of v's Top part
REG_TOP_DIST = "tdist"       # distance to the Top part root, inside the part
REG_TOP_BOUND = "tbound"     # claimed bound on the Top part height (EDIAM)
REG_TOP_COUNT = "tcount"     # number of pieces stored in the Top part
REG_BOT_ROOT = "brt"         # identity of the root of v's Bottom part
REG_BOT_DIST = "bdist"
REG_BOT_BOUND = "bbound"
REG_BOT_COUNT = "bcount"
REG_PIECES_TOP = "pc_top"    # permanently stored pieces, tuple of
REG_PIECES_BOT = "pc_bot"    # (root_id, level, weight) triples (<= 2 each)

#: every label register, in a stable order (used by fault injection and
#: memory accounting).
LABEL_REGISTERS = (
    REG_PARENT_ID, REG_PARENT_PORT, REG_TID, REG_DIST,
    REG_N, REG_SUBTREE,
    REG_ELL, REG_ROOTS, REG_ENDP, REG_PARENTS, REG_ORENDP,
    REG_JMASK, REG_DELIM,
    REG_TOP_ROOT, REG_TOP_DIST, REG_TOP_BOUND, REG_TOP_COUNT,
    REG_BOT_ROOT, REG_BOT_DIST, REG_BOT_BOUND, REG_BOT_COUNT,
    REG_PIECES_TOP, REG_PIECES_BOT,
)

#: schema declarations ``(name, kind, default)`` of the label registers.
#: The *verified* values are of the declared kinds; the adversary may
#: still plant anything (registers store raw values — kinds drive the
#: write-time nat-coercion cache, not validation).
LABEL_REGISTER_DECLS = (
    (REG_PARENT_ID, "opaque", None),   # int, None at the root
    (REG_PARENT_PORT, "opaque", None),
    (REG_TID, "nat", None),
    (REG_DIST, "nat", None),
    (REG_N, "nat", None),
    (REG_SUBTREE, "nat", None),
    (REG_ELL, "nat", None),
    (REG_ROOTS, "str", None),
    (REG_ENDP, "str", None),
    (REG_PARENTS, "str", None),
    (REG_ORENDP, "tuple", None),
    (REG_JMASK, "nat", None),
    (REG_DELIM, "nat", None),
    (REG_TOP_ROOT, "nat", None),
    (REG_TOP_DIST, "nat", None),
    (REG_TOP_BOUND, "nat", None),
    (REG_TOP_COUNT, "nat", None),
    (REG_BOT_ROOT, "nat", None),
    (REG_BOT_DIST, "nat", None),
    (REG_BOT_BOUND, "nat", None),
    (REG_BOT_COUNT, "nat", None),
    (REG_PIECES_TOP, "tuple", None),
    (REG_PIECES_BOT, "tuple", None),
)


def declare_label_registers(schema) -> None:
    """Declare the marker's label registers into a register schema.

    Labels are declared ``stable``: they change only under fault
    injection or relabeling, so writes to them bump the node's
    stable version and invalidate the protocols' label-derived caches
    (part topology, Ask levels, static-check results, budgets)."""
    for name, kind, default in LABEL_REGISTER_DECLS:
        schema.declare(name, kind, default, stable=True)
