(** Word-addressed memories.

    The machine exposes two memory spaces mirroring the MSP430FR5994:
    non-volatile FRAM (256 KB, survives power failures) and volatile SRAM
    (8 KB, cleared on reboot). Words hold OCaml [int]s; conceptually they
    are 16-bit cells, and the cost model charges per-word. The memory
    module itself is cost-free — the machine charges energy/time around
    each access — but it keeps access counters for diagnostics.

    A memory has a {e nominal} size, fixed at {!create}: it bounds every
    address and is what {!size} reports. Host memory backs only a
    {e resident prefix} of it, which starts empty and grows
    geometrically (capped at the nominal size) the first time a
    {!write}, {!blit}, {!load} or {!clear_prefix} reaches past it;
    every word beyond the prefix reads as 0. Creating a memory is
    therefore O(1), and its footprint follows the highest address
    actually stored to. *)

type space = Fram | Sram

val space_to_string : space -> string

type t

val create : space -> words:int -> t
(** A zeroed memory of nominal size [words], with nothing resident yet.
    Raises [Invalid_argument] when [words] is negative. *)

val space : t -> space

val size : t -> int
(** The nominal size in words. *)

val read : t -> int -> int
(** [read t addr] returns the word at [addr]. Raises [Invalid_argument]
    when out of bounds. *)

val write : t -> int -> int -> unit
(** [write t addr v] stores [v] at [addr]. *)

val blit : src:t -> src_addr:int -> dst:t -> dst_addr:int -> words:int -> unit
(** Raw block copy; used by the DMA engine. Handles overlapping ranges
    within the same memory like [Array.blit]. *)

val dot : t -> int -> int -> int -> int
(** [dot t a b len] is the sum of [read t (a + i) * read t (b + i)] for
    [i < len] (0 when [len <= 0]), with each range bounds-checked once.
    The read counter advances by [2 * len], exactly as the per-word loop
    would, and words past the resident prefix read as 0. Raises
    [Invalid_argument] when either range leaves the memory. *)

val load : t -> int -> int array -> unit
(** [load t addr values] stores the whole image at [addr] in one blit.
    The write counter advances by [Array.length values], exactly as the
    equivalent per-word {!write} loop would — harness setup helper. *)

val clear_prefix : t -> int -> unit
(** [clear_prefix t words] zeroes the first [words] cells (SRAM content
    loss on reboot, arena resets) and makes them resident, so an arena
    cleared up to its layout's high-water mark never grows again. *)

val reset_counters : t -> unit
(** Zero the diagnostic read/write counters; used when a machine arena
    is recycled between runs. *)

val reads : t -> int
val writes : t -> int

val set_counters : t -> reads:int -> writes:int -> unit
(** Overwrite the diagnostic counters; snapshot restore uses this to
    roll them back together with contents. *)

(** {1 Copy-on-write snapshots}

    An {!image} is an immutable, persistent copy of the memory's
    contents, chunked into 64-word pages: a page directory covering the
    resident prefix at capture time, with every later page (and every
    all-zero page) standing for one shared zero page. The first
    {!snapshot} of a memory copies every resident page and switches on
    dirty-page tracking (one extra branch on the write path — memories
    that never snapshot pay only that dead branch); each later snapshot
    copies {e only the pages written since the previous one} and shares
    the rest with it structurally. Snapshot, {!restore} and
    {!image_hash} all cost O(resident pages) for the directory, plus
    the pages they copy. Images never alias the live word array and are
    never mutated after creation, so they can be held indefinitely. *)

type image

val snapshot : t -> image
(** Capture the current contents as a persistent image and make it the
    new copy-on-write base. Copies every resident page on the first
    call after [create] or {!untrack}, and only the dirty pages
    afterwards; the page directory is O(resident pages) either way. *)

val restore : t -> image -> unit
(** Overwrite contents from an image of the same nominal size and make
    it the new base, scanning the resident pages and copying those that
    may differ from the live contents. Raises [Invalid_argument] on
    size mismatch. Access counters are {e not} touched; use
    {!set_counters} to roll them back. *)

val untrack : t -> unit
(** Drop the copy-on-write base and switch dirty tracking off; the next
    {!snapshot} is a full copy again. Arena resets call this so
    recycled runs do not pay for a stale dirty set. *)

val image_get : image -> int -> int
(** [image_get img addr] reads one word of an image, O(1). Raises
    [Invalid_argument] outside the nominal size. *)

val image_copied : image -> int
(** Pages freshly copied when this image was taken — every nominal page
    on a full capture (the non-resident ones being zero), the dirty
    pages on an incremental one — which feeds the
    [snapshot/pages_copied] obs counter. *)

val image_hash : image -> int
(** Structural hash of the full contents, folded from per-page hashes
    computed when each page was captured, up to the last non-zero page:
    O(resident pages), no word traversal, and equal contents hash equal
    whatever resident length each image was captured at. *)

val hash : t -> int
(** [image_hash (snapshot t)], computed in place: nothing is captured
    or copied. Pages not written since the copy-on-write base was taken
    reuse its page hashes; the others are hashed from their words. *)

val same : t -> image -> bool
(** Whether the live contents equal the image word for word, read in
    place. A page that was not written since the base was taken and is
    the image's own page (the two share it) is equal unread. *)
