"""Versioned JSON key files: the full scrambling credential on disk.

Schema (version 1), all fields required, unknown fields rejected::

    {
      "version": 1,
      "family": "arnold" | "gat" | "fibonacci-q" | "gft"
               | "f11lt" | "f32lt" | "f31lt" | "triangular" | "raw",
      "params": { ... family-specific, see README ... },
      "n": <image side, integer >= 2>,
      "iterations": <integer >= 0>
    }
"""

import json

from .errors import KeyFormatError, clip
from .maps import build_map
from .scramble import ScrambleKey

KEY_VERSION = 1

_FIELDS = {"version", "family", "params", "n", "iterations"}


def key_to_dict(key: ScrambleKey) -> dict:
    return {
        "version": KEY_VERSION,
        "family": key.map.family,
        "params": dict(key.map.params),
        "n": key.n,
        "iterations": key.iterations,
    }


def key_from_dict(doc: dict) -> ScrambleKey:
    if not isinstance(doc, dict):
        raise KeyFormatError("key document must be a JSON object")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise KeyFormatError(f"unknown key fields: {clip(repr(sorted(unknown)))}")
    missing = _FIELDS - set(doc)
    if missing:
        raise KeyFormatError(f"missing key fields: {sorted(missing)}")
    if type(doc["version"]) is not int or doc["version"] != KEY_VERSION:
        raise KeyFormatError(
            f"unsupported key version {clip(repr(doc['version']))}; "
            f"this build reads version {KEY_VERSION}"
        )
    if not isinstance(doc["params"], dict):
        raise KeyFormatError("params must be a JSON object")
    n = doc["n"]
    t = doc["iterations"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise KeyFormatError(f"n must be an integer >= 2, got {clip(repr(n))}")
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise KeyFormatError(f"iterations must be an integer >= 0, got {clip(repr(t))}")
    m = build_map(doc["family"], doc["params"])
    return ScrambleKey(m, n, t)


def loads_key(text: str) -> ScrambleKey:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise KeyFormatError("key file nests JSON arrays or objects too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise KeyFormatError(f"key file is not valid JSON: {exc}") from exc
    return key_from_dict(doc)


def dumps_key(key: ScrambleKey) -> str:
    return json.dumps(key_to_dict(key), indent=2) + "\n"


def read_key_file(path) -> ScrambleKey:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_key(fh.read())


def write_key_file(path, key: ScrambleKey) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_key(key))
