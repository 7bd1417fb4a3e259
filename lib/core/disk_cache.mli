(** Crash-safe on-disk tier for the content-addressed compile cache.

    A directory of checksummed blobs, sharded by key digest
    ([dir/ab/abcdef....masc]), written via temp-file + atomic rename so
    a crash mid-write can never leave a half entry under the final
    name. Reads are paranoid by design: a truncated, bit-flipped,
    version-skewed or otherwise unparseable entry is detected by the
    header checks and payload digest, counted
    (["cache.disk_corrupt"]), deleted, and reported as a miss — {e
    never} an error. The store is an optimization; losing an entry must
    only ever cost a recompile.

    Entry layout (header lines are ASCII, then raw payload bytes):
    {v
    MASCDC1\n
    v:<caller version>\n
    k:<key>\n
    d:<hex MD5 of payload>\n
    n:<payload byte length>\n
    <payload>
    v}

    All file I/O retries [EINTR]. Real read-side I/O errors degrade to
    a miss (["cache.disk_read_errors"]); write-side errors are swallowed
    after counting (["cache.disk_write_errors"]). Neither ever reaches
    the caller, so a cache fault never fails or retries a request. *)

(** [find ~dir ~version ~key] returns the payload stored for [key], or
    [None] on miss/corruption/read error. Counts
    ["cache.disk_hits"]/["cache.disk_misses"]. *)
val find : dir:string -> version:string -> key:string -> string option

(** [store ~dir ~version ~key payload] persists atomically; best-effort
    (counts and swallows I/O failures). Counts ["cache.disk_writes"]. *)
val store : dir:string -> version:string -> key:string -> string -> unit

(** [invalidate ~dir ~key] deletes [key]'s entry and counts it
    corrupt — for callers that discover corruption only after
    [find] (e.g. a payload that fails to unmarshal). *)
val invalidate : dir:string -> key:string -> unit

