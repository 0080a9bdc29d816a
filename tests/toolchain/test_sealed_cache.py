"""One sealed store for every cache kind: build artifacts (``.json``),
checkpoint sets (``.snapset``), golden profiles (``.golden``) and
compiled code (``.code``).

For each kind, a truncated entry and a bit-flipped entry must each be
a counted invalid miss that removes the file, and the rebuild must
write the very same bytes again. Artifact keys must follow the
sources of the IR package (printer, parser, types, values), checkpoint
and golden keys the sources of machine semantics, while the digests
that salt lab store keys must follow neither.
"""

import importlib
import warnings
from pathlib import Path

import pytest

from repro.cpu import Machine, MachineConfig
from repro.cpu.compiled import _decode_code, code_cache_clear
from repro.faults import campaign as fc
from repro.faults.campaign import CampaignConfig, golden_profile
from repro.lab.checkpoint import build_spec
from repro.snap.build import build_checkpoints
from repro.snap.store import GOLDEN_SUFFIX, SNAPSET_SUFFIX, checkpoint_key, \
    golden_key, machine_key, parse_golden, parse_set
from repro.toolchain import ArtifactCache, Toolchain, get_variant, \
    toolchain_digest

CELL = ("histogram", "test", "elzar")


def _artifact(root):
    """Build the cell into the cache at ``root``; (key, observation)."""
    built = Toolchain(cache=ArtifactCache(str(root))).build(*CELL)
    key = Toolchain.artifact_key(*CELL[:2], get_variant(CELL[2]))
    return key, (built.ir_digest, built.from_cache)


def _checkpoints(root):
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    _, profile = golden_profile(built.module, built.entry, built.args)
    cset = build_checkpoints(
        built.module, built.entry, built.args,
        budget=int(profile.executed * 4.0) + 10_000,
        model="register-bitflip", eligible=profile.eligible,
        cache=ArtifactCache(str(root)))
    return cset.key, (cset.marks, cset.from_cache)


def _golden(root):
    """A fresh module's golden profile through the cache at ``root``;
    the observation includes how many golden runs it took."""
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    runs = fc.GOLDEN_RUNS
    output, profile = golden_profile(built.module, built.entry, built.args,
                                     cache=ArtifactCache(str(root)))
    [(key, _size)] = ArtifactCache(str(root)).entries(GOLDEN_SUFFIX)
    return key, (output, profile, fc.GOLDEN_RUNS - runs)


def _code(root):
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    code_cache_clear()
    machine = Machine(built.module, MachineConfig(collect_timing=False))
    result = machine.run(built.entry, built.args)
    [(key, _size)] = ArtifactCache(str(root)).entries(".code")
    return key, (list(machine.output), repr(result.value))


#: suffix -> (build into a cache root, read one entry back)
KINDS = {
    ".json": (_artifact, lambda cache, key: cache.load(key)),
    SNAPSET_SUFFIX: (_checkpoints,
                     lambda cache, key: cache.get(key, SNAPSET_SUFFIX,
                                                  parse_set)),
    GOLDEN_SUFFIX: (_golden,
                    lambda cache, key: cache.get(key, GOLDEN_SUFFIX,
                                                 parse_golden)),
    ".code": (_code, lambda cache, key: cache.get(key, ".code",
                                                  _decode_code)),
}

DAMAGE = {
    "truncated": lambda data: data[:len(data) // 2],
    "bit-flipped": lambda data: (data[:len(data) // 2]
                                 + bytes([data[len(data) // 2] ^ 0x04])
                                 + data[len(data) // 2 + 1:]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("suffix", sorted(KINDS))
def test_damaged_entry_is_an_invalid_miss_and_rebuilds_identically(
        suffix, damage, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
    build, read = KINDS[suffix]
    key, want = build(tmp_path)
    cache = ArtifactCache(str(tmp_path))
    path = Path(cache._path(key, suffix))
    original = path.read_bytes()
    assert read(cache, key) is not None

    path.write_bytes(DAMAGE[damage](original))
    cache = ArtifactCache(str(tmp_path))
    assert read(cache, key) is None
    assert cache.stats_for(suffix).as_dict() == {
        "hits": 0, "misses": 1, "stores": 0, "invalid": 1}
    assert not path.exists()

    again, got = build(tmp_path)
    assert (again, got) == (key, want)
    assert path.read_bytes() == original


def test_warm_golden_profile_runs_nothing(tmp_path):
    """A fresh module reads its golden profile back from the cache —
    no golden run — and gets the cold run's output and totals."""
    key, (output, profile, runs) = _golden(tmp_path)
    assert runs == 1
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    cache = ArtifactCache(str(tmp_path))
    before = fc.GOLDEN_RUNS
    assert golden_profile(built.module, built.entry, built.args,
                          cache=cache) == (output, profile)
    assert fc.GOLDEN_RUNS == before
    assert cache.stats_for(GOLDEN_SUFFIX).as_dict() == {
        "hits": 1, "misses": 0, "stores": 0, "invalid": 0}


def test_unkeyable_predicate_and_disabled_cache_store_no_golden(tmp_path):
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    cache = ArtifactCache(str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        golden_profile(built.module, built.entry, built.args,
                       fault_eligible=lambda fn: True, cache=cache)
    golden_profile(built.module, built.entry, built.args,
                   cache=ArtifactCache.disabled())
    assert cache.entries(GOLDEN_SUFFIX) == []
    assert cache.stats_for(GOLDEN_SUFFIX).as_dict() == {
        "hits": 0, "misses": 0, "stores": 0, "invalid": 0}


def test_statistics_stay_per_kind(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
    cache = ArtifactCache(str(tmp_path))
    Toolchain(cache=cache).build(*CELL)
    assert cache.stats.stores == 2  # the noavx base and the variant
    assert cache.stats_for(SNAPSET_SUFFIX).stores == 0
    assert cache.stats_for(".code").stores == 0


def test_ir_format_digest_salts_artifact_keys_only(monkeypatch):
    """A printer or parser edit turns stored artifacts into misses, but
    leaves the toolchain digest (cluster handshake, lab cell keys) and
    lab spec keys alone, so stored campaign shards stay valid."""
    build_mod = importlib.import_module("repro.toolchain.build")
    spec = get_variant("elzar")
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    _, profile = golden_profile(built.module, built.entry, built.args)

    def keys():
        lab = build_spec(built.module, built.entry, built.args,
                         CampaignConfig(seed=1), profile.eligible)
        return (Toolchain.artifact_key("histogram", "test", spec),
                toolchain_digest(), lab.cell_key, lab.spec_key)

    before = keys()
    monkeypatch.setattr(build_mod, "_IR_FORMAT_DIGEST", "0" * 64)
    after = keys()
    assert after[0] != before[0]
    assert after[1:] == before[1:]


def test_ir_format_digest_follows_every_ir_source(tmp_path):
    """The printed text depends on more than the printer and parser:
    ``Type.__str__`` in ``types.py`` and the constant text and scalar
    normalisation in ``values.py`` too. An edit to any of them must
    move the digest, or old artifacts would still hit while a cold
    process prints new text."""
    build_mod = importlib.import_module("repro.toolchain.build")
    ir_dir = Path(importlib.import_module("repro.ir.printer").__file__).parent
    assert build_mod._sources_digest(str(ir_dir)) == \
        build_mod.ir_format_digest()
    copy = tmp_path / "ir"
    copy.mkdir()
    for source in ir_dir.glob("*.py"):
        (copy / source.name).write_bytes(source.read_bytes())
    seen = {build_mod._sources_digest(str(copy))}
    for name in ("printer.py", "parser.py", "types.py", "values.py"):
        with open(copy / name, "a") as fh:
            fh.write("\n# edited\n")
        seen.add(build_mod._sources_digest(str(copy)))
    assert len(seen) == 5


def test_semantics_digest_salts_checkpoint_and_golden_keys_only(
        monkeypatch):
    """An edit to instruction semantics turns stored checkpoint sets
    and golden profiles into misses, but leaves artifact keys, the
    toolchain digest and lab keys alone."""
    build_mod = importlib.import_module("repro.toolchain.build")
    spec = get_variant("elzar")
    built = Toolchain(cache=ArtifactCache.disabled()).build(*CELL)
    _, profile = golden_profile(built.module, built.entry, built.args)
    mkey = machine_key(MachineConfig(collect_timing=False))

    def keys():
        lab = build_spec(built.module, built.entry, built.args,
                         CampaignConfig(seed=1), profile.eligible)
        return (checkpoint_key(built.module, built.entry, (), (), "m", 9,
                               mkey, ()),
                golden_key(built.module, built.entry, (), (), mkey),
                Toolchain.artifact_key("histogram", "test", spec),
                toolchain_digest(), lab.cell_key, lab.spec_key)

    before = keys()
    monkeypatch.setattr(build_mod, "_SEMANTICS_DIGEST", "0" * 64)
    after = keys()
    assert after[0] != before[0]
    assert after[1] != before[1]
    assert after[2:] == before[2:]


def test_semantics_digest_follows_every_semantics_source(tmp_path):
    """Every source of ``repro.cpu`` and ``repro.avx`` and the
    checkpoint format moves the digest: a stale checkpoint or golden
    profile must never outlive the semantics that produced it."""
    build_mod = importlib.import_module("repro.toolchain.build")
    root = Path(importlib.import_module("repro").__file__).parent
    assert build_mod._semantics_digest(str(root)) == \
        build_mod.semantics_digest()
    copy = tmp_path / "repro"
    sources = []
    for package in ("cpu", "avx"):
        (copy / package).mkdir(parents=True)
        for source in (root / package).glob("*.py"):
            (copy / package / source.name).write_bytes(source.read_bytes())
            sources.append(copy / package / source.name)
    (copy / "snap").mkdir()
    (copy / "snap" / "format.py").write_bytes(
        (root / "snap" / "format.py").read_bytes())
    sources.append(copy / "snap" / "format.py")
    seen = {build_mod._semantics_digest(str(copy))}
    for source in sources:
        with open(source, "a") as fh:
            fh.write("\n# edited\n")
        seen.add(build_mod._semantics_digest(str(copy)))
    assert len(seen) == len(sources) + 1
    assert len(sources) >= 15


def test_format_errors_are_invalid_misses_and_bugs_propagate(tmp_path):
    """Only a decoder's format errors make an invalid miss; any other
    exception is a bug in the decoder, which must surface rather than
    silently rebuild the entry on every load."""
    cache = ArtifactCache(str(tmp_path))
    key = "ab" * 16

    def raising(exc):
        def decode(body):
            raise exc
        return decode

    cache.put(key, ".code", b"body")
    with pytest.raises(AttributeError):
        cache.get(key, ".code", raising(AttributeError("bug")))
    assert cache.stats_for(".code").invalid == 0
    assert cache.get(key, ".code", bytes) == b"body"
    assert cache.get(key, ".code", raising(EOFError())) is None
    assert cache.stats_for(".code").invalid == 1
    assert cache.get(key, ".code", bytes) is None
    # A well-sealed artifact whose meta is not an object is a format
    # error too, not an AttributeError.
    cache.put(key, ".json", b'{"meta": [], "ir": ""}')
    assert cache.load(key) is None
    assert cache.stats.invalid == 1
