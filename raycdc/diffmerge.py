"""Reversible attribute evolution: record-level diff (change-set
extract), sealed change-set envelopes, and merge re-apply — the
deidentify-encrypt → decrypt-reidentify round trip.

Reference semantics (SURVEY.md §2.4 J4-J6, §2.8 C1-C4):

* **diff extract** — ``originalTags.getRemovedOrModified(deidentifiedTags)``
  computes the change set needed to restore the original record
  (``DeidentifyEncryptDICOM.java:406-444``). Engine: a row-aligned diff of
  two batch versions inside one ``map_batches`` → a ``_changeset`` column.
* **envelope** — CMS password envelope, AES + PBKDF2 with an iterations
  knob ("more … costs CPU cycles", ``DeidentifyEncryptDICOM.java:90-96``;
  ``util/Encryption.java:44-78``). Engine: PBKDF2-HMAC-SHA256 → AES-GCM
  with a *content-derived nonce* (SIV-style) so sealing is deterministic
  and replay produces byte-identical output (idempotence requirement).
* **key memo + conflict policy** — the stored expected keys are compared
  on decrypt; mismatch routes to ``not decrypted`` / reject, or is
  accepted as a new series preserving current keys
  (``DecryptReidentifyDICOM.java:170-188``).
* **merge apply (LWW)** — ``Attributes.update(UpdatePolicy.OVERWRITE)``
  re-applies the change set over the current record
  (``DecryptReidentifyDICOM.java:192-193``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

try:  # sandbox ships cryptography; stay import-safe anyway
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    HAVE_CRYPTO = True
except Exception:  # pragma: no cover
    AESGCM = None
    HAVE_CRYPTO = False

CHANGESET_COL = "_changeset"
ROUTE_NOT_DECRYPTED = "not_decrypted"


# ------------------------------------------------------------------ envelope
DEFAULT_ITERATIONS = 100_000  # PBKDF2 cost dial (reference default was 100 —
# deliberately raised; callers tune down only for tests/benchmarks)
DEFAULT_SALT = b"raycdc-envelope-v2"  # override per deployment/lake: a random
# salt generated once and stored alongside the data (not per record — the
# envelope must stay deterministic for replay; the salt's job is to make the
# derived key installation-specific against precomputed-password attacks)


def _derive_key(password: str, iterations: int, salt: bytes = DEFAULT_SALT) -> bytes:
    """PBKDF2 key derivation; ``iterations`` is the per-record compute dial."""
    return hashlib.pbkdf2_hmac("sha256", password.encode(), salt, iterations)


def _sealer(key: bytes):
    """The envelope sealer for one derived ``key``: ``payload -> nonce +
    AES-GCM(key, nonce, payload)``, where the nonce is
    HMAC-SHA256(key, payload)[:12].

    The HMAC is RFC 2104's ``H(K0 ^ opad || H(K0 ^ ipad || payload))``
    with K0 the key zero-padded to SHA-256's 64-byte block: both pad
    states are hashed once here, so a payload costs one copy and update
    of each (byte-identical to ``hmac.new(key, payload, sha256)``), and
    the ``AESGCM`` object is built once."""
    if not HAVE_CRYPTO:  # pragma: no cover
        raise NotImplementedError("cryptography library unavailable")
    k0 = key.ljust(64, b"\0")  # a derived key is 32 bytes, never longer than a block
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in k0))
    outer = hashlib.sha256(bytes(b ^ 0x5C for b in k0))
    encrypt = AESGCM(key).encrypt

    def seal_one(payload: bytes) -> bytes:
        h = inner.copy()
        h.update(payload)
        mac = outer.copy()
        mac.update(h.digest())
        nonce = mac.digest()[:12]
        return nonce + encrypt(nonce, payload, None)

    return seal_one


def seal(
    payload: bytes,
    password: str,
    iterations: int = DEFAULT_ITERATIONS,
    salt: bytes = DEFAULT_SALT,
) -> bytes:
    """Deterministic authenticated envelope: AES-256-GCM, SIV-style.

    The nonce is **key-dependent** — HMAC-SHA256(key, payload)[:12] — so
    equal payloads still seal identically under one key (replay-stable
    epochs) but an attacker without the password can neither confirm a
    guessed payload offline nor link equal payloads across keys (an
    unkeyed payload hash would leak both). One payload, one PBKDF2:
    batch callers derive the key once and seal every row with one
    :func:`_sealer`, which forms every nonce and ciphertext."""
    return _sealer(_derive_key(password, iterations, salt))(payload)


def unseal(
    blob: bytes,
    password: str,
    iterations: int = DEFAULT_ITERATIONS,
    salt: bytes = DEFAULT_SALT,
    _key: bytes | None = None,
    _aes=None,
) -> bytes | None:
    """Returns None when the password is wrong / blob corrupt (the
    'not decrypted' route), never raises for bad credentials."""
    if not HAVE_CRYPTO:  # pragma: no cover
        raise NotImplementedError("cryptography library unavailable")
    try:
        aes = _aes
        if aes is None:
            key = _key if _key is not None else _derive_key(password, iterations, salt)
            aes = AESGCM(key)
        return aes.decrypt(blob[:12], blob[12:], None)
    except Exception:
        return None


# ------------------------------------------------------------------ diff
def _same_buffers(o, n) -> bool:
    """True iff two columns are physically the same Arrow data (chunk
    layouts and buffer addresses identical) — an O(chunks) check, never a
    data scan. False negatives are fine (the caller falls through to the
    value compare)."""
    try:
        ochunks = o.chunks if isinstance(o, pa.ChunkedArray) else [o]
        nchunks = n.chunks if isinstance(n, pa.ChunkedArray) else [n]
        if len(ochunks) != len(nchunks):
            return False
        for oc, nc in zip(ochunks, nchunks):
            if len(oc) != len(nc) or oc.type != nc.type:
                return False
            ob, nb = oc.buffers(), nc.buffers()
            if len(ob) != len(nb):
                return False
            for x, y in zip(ob, nb):
                if (x is None) != (y is None):
                    return False
                if x is not None and (x.address != y.address or x.size != y.size):
                    return False
        return True
    except (AttributeError, NotImplementedError):
        return False


def _changed_mask(o_col: pa.ChunkedArray, n_col: pa.ChunkedArray, n_rows: int):
    """Null-aware vectorized per-row inequality; falls back to a Python
    compare only for types pyarrow.compute can't equal (nested lists).

    Identity shortcut first: a transform that never touched a column
    hands back a column over the SAME Arrow buffers (``Table.set_column``
    replaces only touched columns), so untouched columns — including
    heavy token lists, whose compare would otherwise take the per-row
    Python fallback — cost a buffer-address check, not a scan."""
    if _same_buffers(o_col, n_col):
        return np.zeros(n_rows, dtype=bool)
    o = o_col.combine_chunks() if isinstance(o_col, pa.ChunkedArray) else o_col
    n = n_col.combine_chunks() if isinstance(n_col, pa.ChunkedArray) else n_col
    try:
        eq = pc.fill_null(pc.equal(o, n), False)
        both_null = pc.and_(pc.is_null(o), pc.is_null(n))
        same = pc.or_(eq, both_null)
        return ~np.asarray(same.to_numpy(zero_copy_only=False), dtype=bool)
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
        ol, nl = o.to_pylist(), n.to_pylist()
        return np.fromiter((a != b for a, b in zip(ol, nl)), dtype=bool, count=n_rows)


# exactly the characters json.dumps(ensure_ascii=True) escapes: quote,
# backslash, control characters, DEL and everything non-ASCII
_JSON_ESCAPED = r'[^ -~]|["\\]'


def _dumps(v) -> str:
    """The envelope's canonical JSON: sorted keys, compact separators,
    ASCII-only (``ensure_ascii``)."""
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def _cell_json(arr: pa.Array) -> pa.Array:
    """``_dumps`` of every cell, as a string array without nulls.
    Integers, bools and strings that need no escaping are formatted by
    Arrow kernels; escape-needing strings and every other type (floats,
    lists, structs) go through ``_dumps`` cell by cell, so a value JSON
    cannot encode still raises ``TypeError``."""
    t = arr.type
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        return pc.fill_null(arr.cast(pa.string()), "null")
    if not pa.types.is_string(t):
        return pa.array([_dumps(v) for v in arr.to_pylist()], pa.string())
    out = pc.fill_null(pc.binary_join_element_wise('"', arr, '"', ""), "null")
    esc = pc.fill_null(pc.match_substring_regex(arr, _JSON_ESCAPED), False)
    if not pc.any(esc).as_py():
        return out
    fixed = pa.array([_dumps(v) for v in arr.filter(esc).to_pylist()], pa.string())
    return pc.replace_with_mask(out, esc, fixed)


def compute_changeset(
    original: pa.Table,
    transformed: pa.Table,
    key: str = "doc_id",
    password: str | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    salt: bytes = DEFAULT_SALT,
    kdf: str = "batch",
) -> pa.Table:
    """Row-aligned diff: for every row, record the original values of the
    columns the transform removed or modified (plus removed-column data),
    memo'ing the *transformed* key for the conflict check. Returns
    ``transformed`` + a ``_changeset`` binary column.

    ``original`` and ``transformed`` must be positionally aligned — they
    are two versions of the same batch, exactly like the reference's
    two parses of one record (``DeidentifyEncryptDICOM.java:214-231``).

    The envelope is built column by column: diff detection is
    vectorized (``pc.equal`` masks), and each changed column adds a
    ``,"<col>":<cell JSON>`` fragment to its changed rows, joined in
    sorted column order — byte for byte the ``json.dumps(patch,
    sort_keys=True, separators=(",", ":"))`` of the per-row patch
    ``{"expect": {key: ...}, "restore": {...}}``. Only the seal
    (HMAC-SHA256 nonce + AES-GCM) runs per row: one :func:`_sealer` per
    batch, over the payloads read from the Arrow buffer (no per-row
    Arrow scalar).

    ``kdf`` sets the key-derivation COST MODEL (output bytes identical):

    * ``"batch"`` (engine default) — PBKDF2 once per batch. Valid here
      because the envelope salt is a fixed deployment value (replay
      determinism), so every row's key is the same.
    * ``"row"`` — PBKDF2 per record, the REFERENCE's cost profile:
      ``DeidentifyEncryptDICOM.java:90-96`` seals one CMS envelope per
      image with a fresh PBKDF2 inside ("more iterations require more
      per-image computation") because its salt is per-envelope. Use for
      workload studies that must carry the reference's per-record CPU
      (e.g. the scaling bench). Each record's PBKDF2 derives the batch
      key again and is discarded, so every output byte is unchanged.
    """
    if original.num_rows != transformed.num_rows:
        raise ValueError("changeset requires row-aligned tables")
    if kdf not in ("batch", "row"):
        raise ValueError("kdf must be 'batch' or 'row'")
    n_rows = original.num_rows
    # removed columns are all-changed; shared columns diff vectorized
    frags = []
    for c in sorted(original.column_names):
        if c not in transformed.column_names:
            mask = np.ones(n_rows, dtype=bool)
        else:
            mask = _changed_mask(original[c], transformed[c], n_rows)
            if not mask.any():
                continue
        # mask-first: JSON for the changed cells only, then spread back to
        # row positions ("" where this column is unchanged)
        cells = _cell_json(original[c].filter(pa.array(mask)).combine_chunks())
        frag = pc.binary_join_element_wise("," + _dumps(c) + ":", cells, "")
        if not mask.all():
            frag = pc.fill_null(frag.take(pa.array(np.cumsum(mask) - 1, mask=~mask)), "")
        frags.append(frag)
    if key in transformed.column_names:
        expect = _cell_json(transformed[key].combine_chunks())
    else:
        expect = pa.repeat(pa.scalar("null"), n_rows)
    # drop the first fragment's leading comma
    body = pc.utf8_slice_codeunits(pc.binary_join_element_wise(*frags, ""), 1) if frags else ""
    raw = pc.binary_join_element_wise(
        '{"expect":{' + _dumps(key) + ":", expect, '},"restore":{', body, "}}", ""
    ).cast(pa.binary())
    if not password:
        return transformed.append_column(CHANGESET_COL, raw)
    seal_one = _sealer(_derive_key(password, iterations, salt))  # KDF once per batch
    if kdf == "row":  # reference cost model: one KDF per record (the same key)
        for _ in range(n_rows):
            _derive_key(password, iterations, salt)
    # raw is null-free (every cell JSON is filled), so to_numpy yields bytes only
    blobs = [seal_one(p) for p in raw.to_numpy(zero_copy_only=False)]
    return transformed.append_column(CHANGESET_COL, pa.array(blobs, type=pa.binary()))


def apply_changeset(
    batch: pa.Table,
    key: str = "doc_id",
    password: str | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    salt: bytes = DEFAULT_SALT,
    accept_new: bool = False,
) -> pa.Table:
    """Merge re-apply (LWW overwrite): restore original values from each
    row's change set. Adds a ``_route`` column:

    * restored rows → ``ok``
    * undecryptable / unparsable envelope → ``not_decrypted`` (unchanged)
    * key-memo mismatch (the record's key was changed since sealing) →
      ``not_decrypted`` unless ``accept_new``, which restores every
      column EXCEPT the key (accept-as-new-series,
      ``DecryptReidentifyDICOM.java:170-188``).
    """
    from raycdc.routing import ROUTE_OK

    if batch.num_rows == 0:
        # from_pylist([]) would collapse the schema to zero columns and
        # break downstream unification on Ray's empty blocks
        keep = batch.drop_columns([CHANGESET_COL]) if CHANGESET_COL in batch.column_names else batch
        return keep.append_column("_route", pa.array([], type=pa.string()))

    derived = _derive_key(password, iterations, salt) if password else None  # KDF once per batch
    aes = AESGCM(derived) if (derived is not None and HAVE_CRYPTO) else None
    n_rows = batch.num_rows
    # per-row work touches ONLY the envelope column + the key column; the
    # payload (tokens, wide columns) is never materialized to Python —
    # restored cells are scattered back with Arrow masks (mask-first
    # rewrite of the round-2 full-batch to_pylist loop)
    blobs = batch[CHANGESET_COL].to_pylist() if CHANGESET_COL in batch.column_names else [None] * n_rows
    cur_keys = batch[key].to_pylist() if key in batch.column_names else [None] * n_rows
    patches: list[dict | None] = []  # None ⇒ not_decrypted (row unchanged)
    mismatches = []
    for blob, cur in zip(blobs, cur_keys):
        if blob is None:
            patches.append(None)
            mismatches.append(False)
            continue
        raw = unseal(bytes(blob), password, iterations, salt, _key=derived, _aes=aes) if password else bytes(blob)
        if raw is None:
            patches.append(None)
            mismatches.append(False)
            continue
        try:
            patch = json.loads(raw)
        except Exception:
            patches.append(None)
            mismatches.append(False)
            continue
        expected = patch.get("expect", {}).get(key)
        mismatch = expected is not None and cur != expected
        if mismatch and not accept_new:
            patches.append(None)
            mismatches.append(False)
            continue
        patches.append(patch.get("restore", {}))
        mismatches.append(mismatch)

    keep = batch.drop_columns([CHANGESET_COL]) if CHANGESET_COL in batch.column_names else batch
    # group restored cells by column, then patch each column once
    col_cells: dict[str, tuple[list, list]] = {}  # col -> (row indices, values)
    for i, (restore, mismatch) in enumerate(zip(patches, mismatches)):
        if not restore:
            continue
        for c, v in restore.items():
            if mismatch and c == key:
                continue  # accept-as-new: preserve current key
            idx, vals = col_cells.setdefault(c, ([], []))
            idx.append(i)
            vals.append(v)

    out = keep
    for c, (idx, vals) in col_cells.items():
        mask = np.zeros(n_rows, dtype=bool)
        mask[idx] = True
        if c in out.column_names:
            pos = out.column_names.index(c)
            typ = out.column(pos).type
            try:
                repl = pa.array(vals, type=typ)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                repl = pa.array(vals)
                typ = repl.type
            try:
                new_col = pc.replace_with_mask(
                    out.column(pos).combine_chunks().cast(typ), pa.array(mask), repl
                )
            except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
                # nested types lack a scatter kernel: rebuild this one column
                cur_vals = out.column(pos).to_pylist()
                for i, v in zip(idx, vals):
                    cur_vals[i] = v
                new_col = pa.array(cur_vals, type=typ)
            out = out.set_column(pos, c, new_col)
        else:
            # column the transform removed entirely: restored cells, null elsewhere
            cur_vals: list = [None] * n_rows
            for i, v in zip(idx, vals):
                cur_vals[i] = v
            out = out.append_column(c, pa.array(cur_vals))
    routes = pa.array(
        [ROUTE_NOT_DECRYPTED if p is None else ROUTE_OK for p in patches], type=pa.string()
    )
    return out.append_column("_route", routes)


class DeidentifyEncrypt:
    """The forward path as one batch callable: rules + change-set seal.
    It holds only its configuration, so an instance runs in a task stage
    (``ds.map_batches(stage, batch_format="pyarrow")``, as
    :func:`raycdc.pipelines.deid_transform` does); the class also runs
    as an actor pool (``map_batches(DeidentifyEncrypt,
    fn_constructor_kwargs=..., concurrency=N)``). Its CPU is one PBKDF2
    per batch (per row with ``kdf="row"``, ``iterations`` the dial) and
    one seal per row."""

    def __init__(self, ruleset, key: str = "doc_id", password: str | None = None,
                 iterations: int = DEFAULT_ITERATIONS, salt: bytes = DEFAULT_SALT,
                 kdf: str = "batch"):
        self.ruleset = ruleset
        self.key = key
        self.password = password
        self.iterations = iterations
        self.salt = salt
        self.kdf = kdf

    def __call__(self, batch: pa.Table) -> pa.Table:
        transformed = self.ruleset(batch)
        return compute_changeset(
            batch, transformed, key=self.key, password=self.password,
            iterations=self.iterations, salt=self.salt, kdf=self.kdf,
        )


class DecryptReidentify:
    """Actor-pool stage for the reverse path."""

    def __init__(self, key: str = "doc_id", password: str | None = None,
                 iterations: int = DEFAULT_ITERATIONS, salt: bytes = DEFAULT_SALT,
                 accept_new: bool = False):
        self.key = key
        self.password = password
        self.iterations = iterations
        self.salt = salt
        self.accept_new = accept_new

    def __call__(self, batch: pa.Table) -> pa.Table:
        return apply_changeset(
            batch, key=self.key, password=self.password, iterations=self.iterations,
            salt=self.salt, accept_new=self.accept_new,
        )
