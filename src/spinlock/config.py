"""Run configuration: JSON ingestion, validation, normalization.

A config file fully determines a run (together with the master seed); the
normalized form is echoed into every output header so results are
traceable to their exact inputs.  Validation is strict: unknown keys are
errors (with a nearest-key suggestion), grids must be nonempty, positive
and strictly increasing.  User-facing units are ms / pT / Hz, matching lab
conventions; conversion to SI happens at run time, never in the config.

Every key is one row of `SCHEMA` (a tone's keys are rows of `TONE`, a grid
object's of `RANGE`): the field it sets, its default or REQUIRED, and the
parser of its JSON value.
`parse_config` and `to_dict` walk the same rows, so a new key is one field
plus one row, and while it sits at its default no config hash moves.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .analytic import ORDERINGS
from .dicke import MAX_ATOMS
from .errors import ConfigError, _check_integer, _check_real
from .montecarlo import INTEGRANDS, MAX_SEED
from .noise import GYRO_HZ_PER_NT, NoiseComponent
from .squeezing import MAX_PHOTONS, SqueezeParams

EXPERIMENTS = (
    "contrast",
    "sensitivity",
    "verify-bch",
    "oracle-compare",
    "noise-preview",
)
FORMATS = ("csv", "json")
UNIT_TAGS = ("pT", "Hz", "Hz2-slow")
GRID_EPS = 1e-9
# the most points a {start, stop, step} grid may expand to, or a noise
# preview may hold; the largest shipped grid has 301, and a larger count is
# a typo that would otherwise allocate until memory runs out
MAX_GRID_POINTS = 1_000_000
REQUIRED = object()  # the default of a key that must be given


def _hint(value: Any, options: Sequence[str], cutoff: float = 0.6) -> str:
    import difflib  # only a rejected config reaches here
    close = difflib.get_close_matches(str(value), options, n=1, cutoff=cutoff)
    return f"; did you mean {close[0]!r}?" if close else ""


def _unknown_keys(section: str, given: Mapping[str, Any], allowed: Sequence[str]):
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {section}{_hint(key, allowed)}")


def _as_section(section: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{section} must be an object, got {value!r}")
    return value


def _is_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


# item parsers: (section, key, JSON value) -> field value, or ConfigError


def _name(section: str, key: str) -> str:
    """A key as messages name it: section.key, or the bare key at the top level."""
    return key if section == "config" else f"{section}.{key}"


def _integer(low: int, high: float = math.inf):
    """A parser for an integer in [low, high]."""

    def parse(section: str, key: str, value: Any) -> int:
        _check_integer(_name(section, key), value, low, high)
        return value

    return parse


def _real(low: float = -math.inf, high: float = math.inf, strict: bool = False):
    """A parser for a finite number in [low, high], or in (low, high) when strict."""

    def parse(section: str, key: str, value: Any) -> float:
        _check_real(_name(section, key), value, low, high, strict)
        return float(value)

    return parse


def _optional(parse: Callable[[str, str, Any], Any]):
    """A key whose null means unset, as if it were left out."""
    return lambda section, key, value: None if value is None else parse(section, key, value)


def _as_bool(section: str, key: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{_name(section, key)} must be true or false, got {value!r}")
    return value


def _one_of(options: Sequence[str], cutoff: float = 0.6):
    """A parser for one of options, with the closest one as a hint."""

    def parse(section: str, key: str, value: Any) -> str:
        if value not in options:
            raise ConfigError(
                f"{_name(section, key)} must be one of {options}, got {value!r}"
                f"{_hint(value, options, cutoff)}"
            )
        return value

    return parse


def _as_path(section: str, key: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{section}.{key} must be a nonempty string, got {value!r}")
    return value


def _list_of(item: Callable[[str, str, Any], Any]):
    """A nonempty list, each entry checked by item."""

    def parse(section: str, key: str, value: Any) -> tuple:
        if not _is_list(value):
            raise ConfigError(f"{section}.{key} must be a list, got {value!r}")
        if not value:
            raise ConfigError(f"{section}.{key} list must be nonempty")
        return tuple(item(section, f"{key}[{i}]", v) for i, v in enumerate(value))

    return parse


def _as_atoms(section: str, key: str, value: Any) -> tuple[int, ...]:
    if not _is_list(value):
        return (_integer(1)(section, key, value),)
    atoms = _list_of(_integer(1))(section, key, value)
    if len(set(atoms)) < len(atoms):
        # the curves are keyed by atom number, so a repeat would vanish
        raise ConfigError(f"{section}.{key} must not repeat")
    return atoms


def _as_grid(section: str, key: str, value: Any) -> tuple[float, ...]:
    return expand_grid(f"{section}.{key}", value)


def expand_grid(section: str, spec: Any) -> tuple[float, ...]:
    """A grid of positive values: an explicit strictly increasing list, or
    {start, stop, step}."""
    if isinstance(spec, Mapping):
        start, stop, step = _walk(section, spec, RANGE).values()
        if stop < start:
            raise ConfigError(f"{section}: need stop >= start")
        span = (stop - start) / step + GRID_EPS
        if not span < MAX_GRID_POINTS:  # also catches an infinite span
            raise ConfigError(
                f"{section}: {{start, stop, step}} expands to more than "
                f"{MAX_GRID_POINTS} points"
            )
        _check_real(f"{section}.start", spec["start"], 0, strict=True)
        values = tuple(start + i * step for i in range(math.floor(span) + 1))
    elif _is_list(spec):
        for i, v in enumerate(spec):
            _check_real(f"{section}[{i}]", v, 0, strict=True)
        values = tuple(float(v) for v in spec)
    else:
        raise ConfigError(f"{section} must be a list or a start/stop/step object")
    if not values:
        raise ConfigError(f"{section} expands to an empty grid")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{section} must be strictly increasing")
    return values


def _as_tones(section: str, key: str, value: Any) -> tuple[NoiseSpec, ...]:
    if not _is_list(value):
        raise ConfigError("noise must be a list of tone objects")
    specs = []
    for i, tone in enumerate(value):
        where = f"noise[{i}]"
        tone = _as_section(where, tone)
        spec = NoiseSpec(**_walk(where, tone, TONE))
        if "gyro_hz_per_nt" in tone and spec.units != "pT":
            raise ConfigError(f"{where}.gyro_hz_per_nt only applies to pT tones")
        try:
            spec.build()  # what the rows cannot see: a converted amplitude that overflows
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        specs.append(spec)
    return tuple(specs)


def _json(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


class Key(NamedTuple):
    """One config key: the field it sets, its default (or REQUIRED), the
    parser of its JSON value, and the JSON form of the field."""

    field: str
    default: Any
    parse: Callable[[str, str, Any], Any]
    emit: Callable[[Any], Any] = _json


class Section(NamedTuple):
    """A config object: its keys, what it reads as when left out (REQUIRED:
    it must be given), and the one experiment that owns it, if any."""

    keys: Mapping[str, Key]
    absent: Any = {}
    owner: str | None = None


SCHEMA: dict[str, Key | Section] = {
    "experiment": Key("experiment", REQUIRED, _one_of(EXPERIMENTS)),
    "physics": Section(
        {
            # one atom number is written bare, even if configured as a list
            "n_atoms": Key(
                "n_atoms", REQUIRED, _as_atoms, lambda n: n[0] if len(n) == 1 else list(n)
            ),
            "n_photons": Key("n_photons", REQUIRED, _integer(1)),
            "g": Key("g", REQUIRED, _real(0)),
            "tau": Key("tau", REQUIRED, _real(0)),
            "squeeze_duration": Key("squeeze_duration", REQUIRED, _real(0)),
            "chi_override": Key("chi_override", None, _optional(_real(0))),
        },
        absent=REQUIRED,
    ),
    "lockin": Section(
        {
            "n_pulses": Key("n_pulses", REQUIRED, _integer(1)),
            "tau_arm_grid_ms": Key("tau_arm_grid_ms", None, _as_grid),
            "duration_grid_ms": Key("duration_grid_ms", None, _as_grid),
        },
        absent={"n_pulses": 7},
    ),
    "noise": Key("noise", (), _as_tones, lambda specs: [spec.to_dict() for spec in specs]),
    "mc": Section(
        {
            "samples": Key("samples", 2000, _integer(1)),
            "master_seed": Key("master_seed", 0, _integer(0, MAX_SEED - 1)),
        }
    ),
    "toggle": Key("toggle", True, _as_bool),
    "contrast_integrand": Key("integrand", "ramsey", _one_of(INTEGRANDS)),
    "threshold": Key("threshold", 0.9, _real(0, 1, strict=True)),
    "output": Section(
        {
            "path": Key("output_path", "-", _as_path),
            "format": Key("output_format", "csv", _one_of(FORMATS)),
        }
    ),
    "bch": Section(
        {"g_tau_grid": Key("g_tau_grid", (1e-3, 2e-3, 5e-3, 1e-2), _as_grid)},
        owner="verify-bch",
    ),
    "preview": Section(
        {"n_points": Key("preview_points", 1001, _integer(1, MAX_GRID_POINTS))},
        owner="noise-preview",
    ),
    "compare": Section(
        {
            "n_atoms": Key("compare_n_atoms", (1, 2, 3, 4), _list_of(_integer(1, 4))),
            "alphas": Key("compare_alphas", (0.0, 0.1, 0.3), _list_of(_real())),
            "betas": Key("compare_betas", (0.0, 0.4), _list_of(_real())),
            "gammas": Key("compare_gammas", (0.0, 0.5), _list_of(_real())),
            "orderings": Key("compare_orderings", ORDERINGS, _list_of(_one_of(ORDERINGS))),
        },
        owner="oracle-compare",
    ),
}

# the keys of each noise[i] tone, whose fields are NoiseSpec's
TONE: dict[str, Key] = {
    # cutoff 0.5 lets single-character case slips ("pt") match
    "units": Key("units", REQUIRED, _one_of(UNIT_TAGS, 0.5)),
    "amplitude": Key("amplitude", REQUIRED, _real(0)),
    "freq_hz": Key("freq_hz", REQUIRED, _real(0, strict=True)),
    "phase": Key("phase", None, _optional(_real())),
    "gyro_hz_per_nt": Key("gyro_hz_per_nt", GYRO_HZ_PER_NT, _real(0, strict=True)),
}

# the keys of a {start, stop, step} grid object
RANGE: dict[str, Key] = {
    "start": Key("start", REQUIRED, _real()),
    "stop": Key("stop", REQUIRED, _real()),
    "step": Key("step", REQUIRED, _real(0, strict=True)),
}

# Keys written even at their defaults (a required key always is).  Every
# published config-sha256 hashes them, so this list is frozen: any other key,
# including every key added later, is written only when set away from its
# default.  A section that one experiment owns writes its listed keys for that
# experiment, and for another only when one of its keys is away from default.
ALWAYS_WRITTEN = frozenset({
    "noise", "mc.samples", "mc.master_seed", "toggle", "contrast_integrand", "threshold",
    "output.path", "output.format", "bch.g_tau_grid", "preview.n_points",
    "compare.n_atoms", "compare.alphas", "compare.betas", "compare.gammas", "compare.orderings",
})


def _walk(name: str, given: Mapping[str, Any], table: Mapping[str, Any]) -> dict[str, Any]:
    """Field values for every row of table: parsed if given, else defaults."""
    _unknown_keys(name, given, tuple(table))
    fields: dict[str, Any] = {}
    for key, entry in table.items():
        default = entry.absent if isinstance(entry, Section) else entry.default
        if key not in given and default is REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {name}")
        if isinstance(entry, Section):
            value = _as_section(key, given[key]) if key in given else default
            fields.update(_walk(key, value, entry.keys))
        else:
            fields[entry.field] = entry.parse(name, key, given[key]) if key in given else default
    return fields


def _emit(
    table: Mapping[str, Any], source: Any, whole: bool = True, prefix: str = ""
) -> dict[str, Any]:
    """The JSON form of source's fields: required keys, keys away from their
    defaults, and (when the section is written whole) ALWAYS_WRITTEN keys."""
    out: dict[str, Any] = {}
    for key, entry in table.items():
        if isinstance(entry, Section):
            written_whole = entry.owner in (None, source.experiment) or any(
                getattr(source, row.field) != row.default for row in entry.keys.values()
            )
            section = _emit(entry.keys, source, written_whole, f"{key}.")
            if section:
                out[key] = section
            continue
        value = getattr(source, entry.field)
        frozen = whole and prefix + key in ALWAYS_WRITTEN
        if entry.default is REQUIRED or value != entry.default or frozen:
            out[key] = entry.emit(value)
    return out


@dataclass(frozen=True)
class NoiseSpec:
    """One configured tone, in its native units (converted at build time)."""

    units: str
    amplitude: float
    freq_hz: float
    phase: float | None = None
    gyro_hz_per_nt: float = GYRO_HZ_PER_NT

    def build(self) -> NoiseComponent:
        if self.units == "pT":
            return NoiseComponent.from_field_pt(
                self.amplitude, self.freq_hz, self.phase, self.gyro_hz_per_nt
            )
        if self.units == "Hz":
            return NoiseComponent(self.amplitude, self.freq_hz, self.phase)
        return NoiseComponent.from_slow_drift(self.amplitude, self.freq_hz, self.phase)

    def to_dict(self) -> dict[str, Any]:
        return _emit(TONE, self, prefix="noise.")


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized description of one run."""

    experiment: str
    n_atoms: tuple[int, ...]
    n_photons: int
    g: float
    tau: float
    chi: float
    chi_is_override: bool
    squeeze_duration: float
    n_pulses: int
    tau_arm_grid_ms: tuple[float, ...] | None
    duration_grid_ms: tuple[float, ...] | None
    noise: tuple[NoiseSpec, ...]
    samples: int
    master_seed: int
    toggle: bool
    integrand: str
    threshold: float
    g_tau_grid: tuple[float, ...]
    preview_points: int
    output_path: str
    output_format: str
    compare_n_atoms: tuple[int, ...]
    compare_alphas: tuple[float, ...]
    compare_betas: tuple[float, ...]
    compare_gammas: tuple[float, ...]
    compare_orderings: tuple[str, ...]

    @property
    def alpha(self) -> float:
        return self.chi * self.squeeze_duration

    @property
    def chi_override(self) -> float | None:
        """The configured chi, or None when chi follows from g, tau and n_photons."""
        return self.chi if self.chi_is_override else None

    def components(self) -> list[NoiseComponent]:
        return [spec.build() for spec in self.noise]

    def to_dict(self) -> dict[str, Any]:
        """Normalized JSON-ready form; load(to_dict()) round-trips exactly."""
        return _emit(SCHEMA, self)

    def canonical_json(self) -> str:
        """Sorted compact JSON of the computation, used for the provenance
        hash and header echo.

        The output section is excluded: it names the artifact's destination
        and format, so two runs of the same computation written to different
        paths hash (and rerun) identically.
        """
        doc = self.to_dict()
        doc.pop("output", None)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def parse_config(data: Mapping[str, Any]) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig with defaults filled."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    # a null lockin or noise reads as one left out
    data = {k: v for k, v in data.items() if v is not None or k not in ("lockin", "noise")}
    fields = _walk("config", data, SCHEMA)

    # rules that read two or more keys
    experiment = fields["experiment"]
    if _is_list(data["physics"]["n_atoms"]) and experiment != "sensitivity":
        raise ConfigError(f"physics.n_atoms must be a single integer for {experiment}")
    if experiment == "verify-bch":  # the sizes bch_error takes
        _check_integer("physics.n_photons", fields["n_photons"], 1, MAX_PHOTONS)
        _check_integer("physics.n_atoms", fields["n_atoms"][0], 1, MAX_ATOMS)
    chi = fields.pop("chi_override")
    fields["chi_is_override"] = chi is not None
    try:  # products that overflow: chi = n_photons g^2 tau / 8 and alpha = chi t
        if chi is None:
            chi = SqueezeParams.from_g_tau(fields["g"], fields["tau"], fields["n_photons"]).chi
        _check_real("alpha", chi * fields["squeeze_duration"])
    except ConfigError as exc:
        raise ConfigError(f"physics: {exc}") from exc
    fields["chi"] = chi

    needs_lockin = experiment in ("contrast", "sensitivity", "noise-preview")
    if needs_lockin and "lockin" not in data:
        raise ConfigError(f"missing required key 'lockin' for {experiment}")
    tau_arm_grid, duration_grid = fields["tau_arm_grid_ms"], fields["duration_grid_ms"]
    if experiment == "contrast" and tau_arm_grid is None:
        raise ConfigError("contrast requires lockin.tau_arm_grid_ms")
    if experiment == "sensitivity" and duration_grid is None:
        raise ConfigError("sensitivity requires lockin.duration_grid_ms")
    if experiment == "noise-preview" and tau_arm_grid is None and duration_grid is None:
        raise ConfigError("noise-preview requires a lockin grid to set the window length")
    if needs_lockin and "noise" not in data:
        raise ConfigError(f"missing required key 'noise' for {experiment}")
    return RunConfig(**fields)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)
