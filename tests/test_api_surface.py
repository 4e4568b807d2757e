"""Snapshot tests pinning the v1.1 public surface to ``docs/api_v1.md``.

The manifest is normative: these tests parse its fenced blocks and compare
them against the imported package, so any change to ``repro.__all__``, a
facade signature, a config dataclass's fields or the retired-spellings
table must be made in ``docs/api_v1.md`` in the same commit. A failure here means
"you changed the public API without updating the contract", not "update
the snapshot blindly" — read the diff it prints.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import api

MANIFEST = Path(__file__).resolve().parent.parent / "docs" / "api_v1.md"


def _fenced_block(section: str) -> list[str]:
    """Lines of the first fenced code block under ``## <section>``."""
    text = MANIFEST.read_text(encoding="utf-8")
    pattern = rf"^## {re.escape(section)}\n+```text\n(.*?)^```"
    match = re.search(pattern, text, flags=re.MULTILINE | re.DOTALL)
    assert match is not None, f"manifest section {section!r} not found"
    return [line for line in match.group(1).splitlines() if line.strip()]


def _render_signature(fn) -> str:
    """``name(params)`` with annotations stripped and only plain defaults.

    Annotation-free so the manifest stays readable and the check does not
    churn when typing details (unions, quoting) are refactored — the wire
    contract is names, order, kinds and simple default values.
    """
    sig = inspect.signature(fn)
    params = []
    for p in sig.parameters.values():
        p = p.replace(annotation=inspect.Parameter.empty)
        if p.default is not inspect.Parameter.empty and not isinstance(
            p.default, (int, float, str, bool, type(None))
        ):
            p = p.replace(default="...")
        params.append(p)
    sig = sig.replace(parameters=params, return_annotation=inspect.Signature.empty)
    return f"{fn.__name__}{sig}"


def test_all_matches_manifest():
    documented = _fenced_block("Exported names (`repro.__all__`)")
    live = sorted(repro.__all__)
    assert live == documented, (
        "repro.__all__ diverged from docs/api_v1.md:\n"
        f"  only live:       {sorted(set(live) - set(documented))}\n"
        f"  only documented: {sorted(set(documented) - set(live))}"
    )


def test_all_names_importable_and_unique():
    assert len(repro.__all__) == len(set(repro.__all__))
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_facade_signatures_match_manifest():
    documented = _fenced_block("Facade signatures")
    live = sorted(
        _render_signature(getattr(api, name))
        for name in ("solve", "open_session", "run_fleet", "sweep_fleet")
    )
    assert live == sorted(documented)


def test_config_fields_match_manifest():
    documented = {}
    for line in _fenced_block("Configuration fields"):
        name, _, fields_csv = line.partition(":")
        documented[name.strip()] = [f.strip() for f in fields_csv.split(",")]
    live = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (api.SolveConfig, api.SessionConfig, repro.FleetConfig)
    }
    assert live == documented


def test_retired_spellings_match_manifest():
    documented = {}
    for line in _fenced_block("Removed keyword spellings (v1.1)"):
        legacy, _, canonical = line.partition("->")
        documented[legacy.strip()] = canonical.strip()
    assert api._RETIRED_SPELLINGS == documented


@pytest.mark.parametrize("legacy,canonical", sorted(api._RETIRED_SPELLINGS.items()))
def test_retired_spellings_raise_typeerror(legacy, canonical, tiny_trace):
    """Every documented retired spelling is a hard error naming the field."""
    targets = {
        "window": ("open_session", 6),
        "threshold": ("open_session", 1.5),
        "n_workers": ("run_fleet", 1),
    }
    verb, value = targets[canonical]
    with pytest.raises(TypeError, match=rf"{legacy}.*removed in API v1\.1"):
        if verb == "open_session":
            api.open_session(tiny_trace, **{legacy: value})
        else:
            api.run_fleet([("only", tiny_trace)], serial=True, **{legacy: value})


def test_retired_spelling_error_names_the_canonical_field(tiny_trace):
    with pytest.raises(TypeError, match=r"use 'window' for SessionConfig"):
        api.open_session(tiny_trace, time_step=6)
    with pytest.raises(TypeError, match=r"use 'n_workers' for FleetConfig"):
        api.run_fleet([("only", tiny_trace)], serial=True, workers=2)


def test_unknown_keyword_gets_did_you_mean_hint(tiny_trace):
    with pytest.raises(TypeError, match=r"did you mean 'window'\?"):
        api.open_session(tiny_trace, windoww=6)
    # No near-miss: still a TypeError, just without a hint.
    with pytest.raises(TypeError, match=r"unexpected keyword 'zzz'"):
        api.solve(tiny_trace, zzz=1)
    # The sweep's retired iterate-precision knob is an unknown keyword too.
    with pytest.raises(TypeError, match=r"unexpected keyword 'batch_dtype'"):
        api.run_fleet([("only", tiny_trace)], serial=True, batch_dtype="float64")
    with pytest.raises(TypeError, match=r"unexpected keyword 'batch_dtype'"):
        api.sweep_fleet([("only", tiny_trace)], serial=True, batch_dtype="float64")


def test_no_deprecation_shims_remain_in_src():
    """v1.1 acceptance: the facade has no warning-based compatibility path."""
    src = Path(api.__file__).read_text(encoding="utf-8")
    assert "DeprecationWarning" not in src
    assert "warnings" not in src


def test_facade_configs_are_frozen():
    cfg = api.SessionConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.window = 3
