"""Prompt-set loading: YAML files mapping set name -> subject/style/settings."""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import PromptError


@dataclass
class ShotPromptSet:
    name: str
    subject: str
    settings: list
    style: str

    def __post_init__(self):
        # the name becomes one directory under --out; a null one would read as "None"
        if not isinstance(self.name, str):
            raise PromptError(f"prompt set name {self.name!r} must be text")
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise PromptError(f"prompt set name {self.name!r} must be one plain path component")
        # the CLI's failure marker sits next to the set directories, and
        # default macOS and Windows filesystems fold case
        if self.name.casefold() == "failed":
            raise PromptError(f"prompt set name {self.name!r} is the CLI's failure marker")
        if not self.settings:
            raise PromptError(f"prompt set {self.name!r}: needs at least one setting")
        # in the prompt a null would read as the text "None", a list or mapping as its repr
        for name, values in (("subject", [self.subject]), ("style", [self.style]),
                             ("settings", self.settings)):
            for v in values:
                if v is None:
                    raise PromptError(f"prompt set {self.name!r}: field {name!r} has a null value")
                if not isinstance(v, str):
                    raise PromptError(
                        f"prompt set {self.name!r}: field {name!r} must be text, "
                        f"got a {type(v).__name__}"
                    )
        if not self.subject.strip():
            raise PromptError(f"prompt set {self.name!r}: subject must be nonempty")

    @property
    def full_prompts(self) -> list:
        return [f"{self.subject} {setting}, {self.style}" for setting in self.settings]


def parse_prompt_sets(data: dict) -> list:
    if not isinstance(data, dict):
        raise PromptError("prompt file must be a mapping of set name -> fields")
    if not data:  # a run over no set would write nothing and succeed
        raise PromptError("prompt file holds no prompt set")
    known = {"subject", "style", "settings"}
    sets, folded = [], {}  # folded: each name's casefold -> the first name with it
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise PromptError(f"prompt set {name!r}: expected a mapping")
        if set(entry) != known:  # a misspelt field would otherwise be dropped unread
            missing, unknown = sorted(known - set(entry)), sorted(set(entry) - known, key=str)
            raise PromptError(f"prompt set {name!r}: missing fields {missing}, unknown fields {unknown}")
        settings = entry["settings"]
        if not isinstance(settings, list):
            raise PromptError(f"prompt set {name!r}: field 'settings' must be a list")
        sets.append(ShotPromptSet(name, entry["subject"], settings, entry["style"]))
        # one directory each under --out, where default macOS and Windows filesystems fold case
        other = folded.setdefault(name.casefold(), name)
        if other != name:
            raise PromptError(f"prompt sets {other!r} and {name!r} differ only in letter case")
    return sets


def read_bytes(path, error: type, kind: str) -> bytes:
    """The bytes of the `kind` file at path. A file that cannot be read
    raises error, an input error that fails a run without a traceback."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror or exc}") from None


_MERGE = "tag:yaml.org,2002:merge"


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key written twice in one mapping, where
    YAML would keep the last value. A merge key (`<<`) still merges, and a
    key written next to it overrides the merged one."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == _MERGE:
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                break  # super() reports the unhashable key
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


class _TextLoader(_UniqueKeyLoader):
    """_UniqueKeyLoader that reads every plain scalar as its text, except the
    null forms (`~`, `null`, an empty value) and the merge key: YAML 1.1 would
    turn a prompt's `no`, `on` or `0x10` into False, True or 16."""

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers
                if tag in ("tag:yaml.org,2002:null", _MERGE)]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }


def read_yaml(path, error: type, kind: str, data: bytes | None = None, loader=_UniqueKeyLoader):
    """The YAML document in the `kind` file at path, parsed by loader from
    data (the file's bytes) or, when data is None, from a fresh read. A file
    that cannot be read, is not UTF-8 or is not valid YAML raises error."""
    if data is None:
        data = read_bytes(path, error, kind)
    try:
        return yaml.load(data.decode("utf-8"), Loader=loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise error(f"{kind} file {path} is not valid YAML: {exc}") from None


def load_prompts(path, data: bytes | None = None) -> list:
    """Load validated prompt sets in file order, from data when the file's
    bytes were already read. Every field is read as the text written."""
    return parse_prompt_sets(read_yaml(path, PromptError, "prompt", data, _TextLoader))
