"""Application configuration: JSON file merged with environment overrides
(environment wins), plus the runtime wiring shared by CLI commands and
scheduler actions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigInvalid
from .lakehouse import LakeTable
from .localfile import config_from_json, load_json_config
from .objectstore import FsStore, S3Config, S3Store
from .staging import StagingStore

CONFIG_ENV = "BRC_CONFIG"
DATA_ROOT_ENV = "BRC_DATA_ROOT"


@dataclass
class ConfigFile:
    """The app config file's JSON object; the environment overrides it."""

    data_root: str = ""
    store: str = "fs"  # "fs" | "s3"
    s3: S3Config = field(default_factory=S3Config)
    dags_dir: str = ""


@dataclass
class AppConfig:
    data_root: Path
    store_kind: str = "fs"
    s3: S3Config | None = None
    dags_dir: Path | None = None


def load_config(path: str | None = None, env: dict | None = None) -> AppConfig:
    """Resolve configuration from an optional JSON file and the environment.

    Precedence: environment > file > defaults. The data root is created if
    missing and must be writable.
    """
    env = os.environ if env is None else env
    path = path or env.get(CONFIG_ENV)
    if path:
        return load_json_config(path, lambda obj: _resolve(obj, env))
    return _resolve({}, env)


def _resolve(obj: dict, env) -> AppConfig:
    if not isinstance(obj, dict):
        raise ConfigInvalid("config", "must be a JSON object")
    file = config_from_json(ConfigFile, obj)
    data_root = env.get(DATA_ROOT_ENV) or file.data_root
    if not data_root:
        raise ConfigInvalid("data_root", f"set in config file or {DATA_ROOT_ENV}")
    root = Path(data_root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / f".writable-{os.getpid()}"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigInvalid("data_root", f"{root} not writable: {exc}")

    for f in fields(S3Config):  # BRC_S3_ENDPOINT, BRC_S3_REGION, ...
        setattr(file.s3, f.name, env.get(f"BRC_S3_{f.name.upper()}") or getattr(file.s3, f.name))
    if file.store == "s3":
        file.s3.validate()
    elif file.store != "fs":
        raise ConfigInvalid("store", f"unknown store kind {file.store!r}")
    return AppConfig(
        data_root=root,
        store_kind=file.store,
        s3=file.s3 if file.store == "s3" else None,
        dags_dir=Path(file.dags_dir) if file.dags_dir else root / "dags",
    )


class AppContext:
    """Wired stores and tables for one process."""

    def __init__(self, config: AppConfig):
        self.config = config
        if config.store_kind == "s3":
            self.store = S3Store(config.s3)
            self.store.probe_conditional_put()
        else:
            self.store = FsStore(config.data_root / "store")
        self.staging = StagingStore(config.data_root / "staging")
        self.runs_root = config.data_root / "runs"
        self._tables: dict[str, LakeTable] = {}

    def table(self, table_id: str) -> LakeTable:
        if table_id not in self._tables:
            self._tables[table_id] = LakeTable(self.store, table_id)
        return self._tables[table_id]
