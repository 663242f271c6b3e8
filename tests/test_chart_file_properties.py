"""Chart files and family parameters, property-tested (derandomized): a
drawn catalog instance survives save_chart and load_chart byte for byte,
and one drawn defect in a valid file makes the CLI exit 1 with a single
`error:` line."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo import catalog
from confgeo.catalog import build_instance
from confgeo.chart import chart_to_dict, load_chart, save_chart
from confgeo.cli import main
from confgeo.conformal_atlas import lift_chart

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """A valid catalog chart: family parameters in range, possibly lifted,
    analytic or FD with a drawn reach."""
    family = draw(st.sampled_from(["hxr", "sxh", "hxh", "wp", "ex33"]))
    if family == "wp":
        m = draw(st.integers(3, 6))
        p = draw(st.integers(1, m - 2))
        params = {"m": m, "p": p, "q": draw(st.integers(1, m - 1 - p))}
    elif family == "ex33":
        m = draw(st.integers(3, 6))
        K = draw(st.integers(2, m - 1))
        params = {"m": m, "K": K, "split": draw(st.integers(1, K - 1))}
    else:
        m = draw(st.integers(2, 5))
        params = {"m": m, "k": draw(st.integers(1, m - 1))}
    if family in ("sxh", "wp"):
        params["a"] = draw(st.floats(1.01, 50.0) | st.integers(2, 50))
    elif family == "hxh":
        params["a"] = draw(st.floats(0.01, 0.99))
    chart = build_instance(family, **params)
    lift = draw(st.sampled_from([None, "psi1", "psi2"]))
    if lift:
        chart = lift_chart(chart, lift)
    if draw(st.booleans()):
        chart = chart.with_jet_mode("fd", fd_step=draw(st.none() | st.floats(0.01, 0.2)))
    return chart


@PROPERTY
@given(chart=instances())
def test_saved_instance_loads_to_the_same_file(tmp_path_factory, chart):
    first = tmp_path_factory.getbasetemp() / "first.json"
    second = tmp_path_factory.getbasetemp() / "second.json"
    save_chart(chart, first)
    save_chart(load_chart(first), second)
    assert second.read_bytes() == first.read_bytes()


def _classify_file(tmp_path_factory, data) -> tuple[int, str, str]:
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--chart-file", str(path)])
    return code, out.getvalue(), err.getvalue()


# values of another JSON type than the one a key holds, none of them valid there
_SWAPS = {
    (int, float): ["x", [1], {"x": 1}],
    (str,): [3, ["x"], {"x": 1}],
    (type(None),): ["x", [1]],
    (dict,): ["x", 3, [1, 2]],
    (list,): ["x", 3, {"x": 1}],
}
_NON_FINITE = [float("nan"), float("inf"), float("-inf")]
_HUGE = [10**300, -(10**300), 1e300, -1e300]
# beyond the range of a double
_OVERFLOW = [10**400, -(10**400)]


def _leaves(data) -> list[tuple]:
    """Paths of the keys of a chart file whose every value of another type is
    invalid."""
    paths = [("name",), ("m",), ("domain",), ("domain", "lo"), ("domain", "hi"), ("jet",), ("fd",),
             ("fd", "step"), ("ambient",), ("ambient", "kind"), ("ambient", "a"), ("params",)]
    paths += [("params", key) for key in data["params"]]
    paths += [("domain", side, i) for side in ("lo", "hi") for i in range(len(data["domain"]["lo"]))]
    return paths


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def _set(data, path, value):
    _get(data, path[:-1])[path[-1]] = value


@st.composite
def mutated_files(draw):
    """A valid chart file with exactly one defect of a drawn kind."""
    data = chart_to_dict(draw(instances()))
    family = data["name"]
    params = [("m",)] + [("params", key) for key in data["params"] if key != "lift"]
    ints = [("m",)] + [("params", key) for key in data["params"] if catalog.PARAMETERS.get(key) is int]
    kind = draw(st.sampled_from(
        ["type-swap", "missing-key", "extra-key", "non-integral", "bool", "non-finite", "huge", "fd-step",
         "ambient", "ambient-radius"]
    ))
    if kind == "type-swap":
        path = draw(st.sampled_from(_leaves(data)))
        old = type(_get(data, path))
        swaps = next(values for types, values in _SWAPS.items() if old in types)
        _set(data, path, draw(st.sampled_from(swaps)))
    elif kind == "missing-key":
        path = draw(st.sampled_from([("name",), ("m",), ("domain",), ("domain", "lo"), ("domain", "hi")]))
        del _get(data, path[:-1])[path[-1]]
    elif kind == "extra-key":
        taken = set(catalog.DEFAULT_INSTANCES[family])
        key = draw(st.sampled_from(sorted(set(catalog.PARAMETERS) - taken)) | st.text(min_size=1, max_size=6))
        if key in taken:
            key = "zz"
        data["params"][key] = 1
    elif kind == "non-integral":
        path = draw(st.sampled_from(ints))
        _set(data, path, _get(data, path) + draw(st.sampled_from([0.5, 0.25, -0.7])))
    elif kind == "bool":
        _set(data, draw(st.sampled_from(params)), draw(st.booleans()))
    elif kind == "non-finite":
        domain = [("domain", side, 0) for side in ("lo", "hi")]
        _set(data, draw(st.sampled_from(params + domain)), draw(st.sampled_from(_NON_FINITE)))
    elif kind == "huge":
        _set(data, draw(st.sampled_from(params)), draw(st.sampled_from(_HUGE)))
    elif kind == "fd-step":
        data["fd"]["step"] = draw(st.sampled_from(_OVERFLOW + [0, -0.05, -1e300]))
    elif kind == "ambient-radius":
        data["ambient"]["a"] = draw(st.sampled_from(_NON_FINITE + _OVERFLOW + [7.0, 0.5, 1.0 + 1e-12]))
    else:
        kinds = {"de_sitter", "anti_de_sitter", "lorentz_flat"} - {data["ambient"]["kind"]}
        data["ambient"]["kind"] = draw(st.sampled_from(sorted(kinds) + ["flat", "unknown"]))
    return data


@PROPERTY
@given(data=mutated_files())
def test_single_defect_is_one_error_line(tmp_path_factory, data):
    code, out, err = _classify_file(tmp_path_factory, data)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@settings(max_examples=10, deadline=None, derandomize=True)
@given(m=st.integers(3, 6), data=st.data())
def test_infeasible_example_file_is_a_computation_error(tmp_path_factory, m, data):
    # ex32's parameters pass; building it is what fails
    K = data.draw(st.integers(2, m - 1))
    split = data.draw(st.integers(1, K - 1))
    file = {"name": "ex32", "m": m, "params": {"K": K, "split": split},
            "domain": {"lo": [0.0] * m, "hi": [1.0] * m}}
    code, out, err = _classify_file(tmp_path_factory, file)
    assert (code, out) == (2, "")
    assert err.startswith("computation error: ex32 core construction infeasible: ")
