"""Application configuration: JSON file merged with environment overrides
(environment wins), plus the runtime wiring shared by CLI commands and
scheduler actions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigInvalid
from .lakehouse import LakeTable
from .localfile import load_json_config, only_keys, typed_field
from .objectstore import FsStore, S3Config, S3Store
from .staging import StagingStore

CONFIG_ENV = "BRC_CONFIG"
DATA_ROOT_ENV = "BRC_DATA_ROOT"


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
    only_keys(obj, ("data_root", "store", "s3", "dags_dir"))
    data_root = env.get(DATA_ROOT_ENV) or typed_field(obj, "data_root", str, "")
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

    store_kind = typed_field(obj, "store", str, "fs")
    s3 = None
    if store_kind == "s3":
        section = typed_field(obj, "s3", dict, {})
        only_keys(section, ("endpoint", "region", "access_key", "secret_key", "bucket"), "s3.")
        s3 = S3Config(
            endpoint=env.get("BRC_S3_ENDPOINT") or typed_field(section, "endpoint", str, "", "s3."),
            region=env.get("BRC_S3_REGION") or typed_field(section, "region", str, "", "s3."),
            access_key=env.get("BRC_S3_ACCESS_KEY") or typed_field(section, "access_key", str, "", "s3."),
            secret_key=env.get("BRC_S3_SECRET_KEY") or typed_field(section, "secret_key", str, "", "s3."),
            bucket=env.get("BRC_S3_BUCKET") or typed_field(section, "bucket", str, "", "s3."),
        )
        s3.validate()
    elif store_kind != "fs":
        raise ConfigInvalid("store", f"unknown store kind {store_kind!r}")

    dags_dir = typed_field(obj, "dags_dir", str, "")
    return AppConfig(
        data_root=root,
        store_kind=store_kind,
        s3=s3,
        dags_dir=Path(dags_dir) if dags_dir else root / "dags",
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
