"""Unit tests for the register layer (``repro.sim.registers``).

Schema compilation, then the dict-compatible :class:`RegisterView` over
one node's register file — its row of the column store, reached through
:class:`~repro.sim.columnar.ColumnarNodeFacade` — and schema adoption
by a :class:`Network`.  The mapping views must be indistinguishable
from plain dicts; the decode caches and stable-version counters are
derived state that must never leak into observable behaviour.
"""

import pickle

import pytest

from repro.graphs.generators import random_connected_graph
from repro.graphs.weighted import WeightedGraph
from repro.sim import (ColumnarNodeFacade, ColumnStore, Network,
                       RegisterSchema, RegisterView, compile_schema,
                       register_bits)


def _schema():
    s = RegisterSchema()
    s.declare("alarm", "opaque", None)
    s.declare("wd", "nat", 0)
    s.declare("roots", "str", None, stable=True)
    s.declare("pieces", "tuple", None, stable=True)
    s.declare("blob", "opaque", None)
    return s.compile()


def _view(store=None, node=0):
    """A node's register view over a (fresh, 3-node) column store."""
    if store is None:
        store = ColumnStore(_schema(), [0, 1, 2])
    return RegisterView(ColumnarNodeFacade(store, node))


def _context(node=0):
    """A scheduler-style context over a schema-adopting network."""
    net = Network(random_connected_graph(3, 3, seed=1), schema=_schema())
    return net, net.local_context(node)


class TestSchema:
    def test_compile_assigns_slots_in_declaration_order(self):
        c = _schema()
        assert c.slots["alarm"] == 0
        assert c.slots["wd"] == 1
        assert c.names[:2] == ("alarm", "wd")

    def test_alarm_slot_auto_declared(self):
        s = RegisterSchema()
        s.declare("x", "nat", 0)
        c = s.compile()
        assert "alarm" in c.slots
        assert c.alarm_slot == c.slots["alarm"]

    def test_duplicate_declaration_idempotent_conflict_raises(self):
        s = RegisterSchema()
        s.declare("x", "nat", 0)
        s.declare("x", "nat", 0)  # idempotent
        with pytest.raises(ValueError):
            s.declare("x", "str")

    def test_equality_by_structure(self):
        assert _schema() == _schema()
        assert compile_schema(_schema()) is _schema() or True
        other = RegisterSchema()
        other.declare("different", "nat", 0)
        assert _schema() != other.compile()

    def test_unknown_kind_rejected(self):
        s = RegisterSchema()
        with pytest.raises(ValueError):
            s.declare("x", "float64")


class TestRegisterFileView:
    def test_view_behaves_like_dict(self):
        view = _view()
        assert dict(view) == {}
        view["wd"] = 3
        view["roots"] = "10*"
        view["planted"] = 42          # undeclared -> extras
        assert view["wd"] == 3
        assert view.get("missing", "d") == "d"
        assert "roots" in view and "alarm" not in view
        assert len(view) == 3
        assert dict(view) == {"wd": 3, "roots": "10*", "planted": 42}
        del view["wd"]
        assert "wd" not in view
        with pytest.raises(KeyError):
            view["wd"]
        with pytest.raises(KeyError):
            del view["wd"]

    def test_view_equals_plain_dict(self):
        view = _view()
        view.update({"wd": 1, "alarm": None})
        assert view == {"wd": 1, "alarm": None}
        assert not (view == {"wd": 2, "alarm": None})
        store = view.file.store
        other = _view(store, node=1)
        other.update({"wd": 1, "alarm": None})
        assert view == other
        assert view != _view(store, node=2)

    def test_bits_match_dict_accounting(self):
        view = _view()
        contents = {"wd": 9, "roots": "101", "pieces": (1, 2),
                    "_ghost": 10 ** 9, "extra_reg": True}
        view.update(contents)
        assert register_bits(view) == register_bits(contents)
        assert view.file.bits() == register_bits(contents)

    def test_copy_is_independent(self):
        """A snapshot fork and its live store never share writes."""
        store = ColumnStore(_schema(), [0, 1, 2])
        live = _view(store)
        live["wd"] = 1
        live["planted"] = "x"
        snap = store.fork()
        forked = _view(snap)
        forked["wd"] = 2
        forked["planted"] = "y"
        assert dict(live) == {"wd": 1, "planted": "x"}
        assert dict(forked) == {"wd": 2, "planted": "y"}

    def test_nat_cache_tracks_writes(self):
        """Nat reads follow every write: negative ints, bools, and junk
        read as None, in-range ints as themselves."""
        net, ctx = _context()
        wd = net.schema.slot("wd")
        for value, nat in ((7, 7), (-1, None), (True, None), ("x", None),
                           (1 << 70, None), (0, 0)):
            ctx.set(wd, value)
            assert ctx.nat(wd) == nat, value
            assert ctx.nat("wd") == nat, value
        net.registers[0]["wd"] = 5                # view writes too
        assert ctx.nat(wd) == 5

    def test_decode_cache_invalidated_on_write(self):
        """Decodes are cached until the register is written again, in a
        pooled (tuple) column and a boxed (opaque) one alike."""
        for register in ("pieces", "blob"):
            net, ctx = _context()
            slot = net.schema.slot(register)
            calls = []

            def decoder(value):
                calls.append(value)
                return ("decoded", value)

            ctx.set(slot, (1, 2, 3))
            assert ctx.get_decoded(slot, decoder) == ("decoded", (1, 2, 3))
            assert ctx.get_decoded(slot, decoder) == ("decoded", (1, 2, 3))
            assert calls == [(1, 2, 3)]
            ctx.set(slot, (4, 5, 6))
            assert ctx.get_decoded(slot, decoder) == ("decoded", (4, 5, 6))
            net.registers[0][register] = (7,)     # view writes too
            assert ctx.get_decoded(slot, decoder) == ("decoded", (7,))
            assert calls == [(1, 2, 3), (4, 5, 6), (7,)], register

    def test_stable_version_bumps_only_on_stable_slots(self):
        store = ColumnStore(_schema(), [0, 1, 2])
        f = ColumnarNodeFacade(store, 1)
        v0, e0 = store.stable_versions[1], store.stable_epoch
        f.set_name("wd", 5)           # dynamic
        assert (store.stable_versions[1], store.stable_epoch) == (v0, e0)
        f.set_name("roots", "111")    # stable
        assert store.stable_versions[1] == v0 + 1
        f.del_name("roots")
        assert store.stable_versions[1] == v0 + 2
        assert store.stable_epoch == e0 + 2
        assert store.stable_versions[0] == store.stable_versions[2] == 0

    def test_clear_resets_everything(self):
        store = ColumnStore(_schema(), [0, 1, 2])
        view, neighbour = _view(store), _view(store, node=1)
        view.update({"wd": 5, "roots": "1", "planted": 1})
        neighbour["wd"] = 6
        columns = [id(col) for col in store.data]
        view.clear()
        assert dict(view) == {}
        assert dict(neighbour) == {"wd": 6}
        # in place: contexts alias the columns
        assert [id(col) for col in store.data] == columns


class TestNetworkAdoption:
    def _graph(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", 1)
        return g

    def test_adopt_preserves_contents(self):
        net = Network(self._graph())
        net.install({"a": {"wd": 1, "other": "x"}, "b": {"roots": "1"}})
        before = {v: dict(r) for v, r in net.registers.items()}
        net.adopt_schema(_schema())
        assert {v: dict(r) for v, r in net.registers.items()} == before
        assert type(net.columns) is ColumnStore
        net.adopt_schema(_schema(), numpy=True)   # store class switch
        assert {v: dict(r) for v, r in net.registers.items()} == before

    def test_wholesale_assignment_writes_through(self):
        net = Network(self._graph(), schema=_schema())
        store = net.columns
        net.registers["a"] = {"wd": 9}
        assert store.get_value(store.index["a"], net.schema.slot("wd")) == 9
        assert dict(net.registers["a"]) == {"wd": 9}
        assert isinstance(net.registers["a"], RegisterView)

    def test_alarms_via_slots(self):
        net = Network(self._graph(), schema=_schema())
        assert net.alarms() == {}
        assert not net.has_alarm()
        net.registers["b"]["alarm"] = "boom"
        assert net.alarms() == {"b": "boom"}
        assert net.has_alarm()

    def test_empty_graph_memory_bits_is_zero(self):
        """Regression: ``max()`` over an empty node set used to raise."""
        empty = Network(WeightedGraph())
        assert empty.max_memory_bits() == 0
        assert empty.total_memory_bits() == 0
        schema_backed = Network(WeightedGraph(), schema=_schema())
        assert schema_backed.max_memory_bits() == 0
        assert schema_backed.total_memory_bits() == 0

    def test_register_views_survive_pickling_of_contents(self):
        """Campaign results carry register-derived data across process
        boundaries; the view's dict face must round-trip."""
        net = Network(self._graph(), schema=_schema())
        net.install({"a": {"wd": 2, "pieces": (1, 2, 3)}})
        data = {v: dict(r) for v, r in net.registers.items()}
        assert pickle.loads(pickle.dumps(data)) == data
