type space = Fram | Sram

let space_to_string = function Fram -> "FRAM" | Sram -> "SRAM"

(* {1 Resident prefix}

   A memory keeps its nominal size for bounds checks, but only a prefix
   of it is backed by a word array: [words] starts empty, grows
   geometrically (capped at the nominal size) the first time a store
   reaches past it, and every word beyond it reads as 0. Its length is
   a whole number of pages unless it equals the nominal size, so host
   memory follows the highest address a program writes, not the 256 KB
   the device has.

   {1 Copy-on-write images}

   A snapshot is an immutable [image]: a directory of page refs (64
   words per page) covering the resident prefix at capture time, plus
   one structural hash per page; pages past the directory, and every
   all-zero page, are the one shared [zero_page]. Consecutive snapshots
   share every page that was not written between them — the memory
   keeps a dirty-page set, maintained by the write path (one branch
   when tracking is off), so the second and later snapshots copy only
   dirty pages besides the directory. Pages inside an image are never
   aliased by the live word array and never mutated after creation, so
   images can be held, compared and restored freely. *)

let page_bits = 6
let page_words = 1 lsl page_bits
let pages_of words = (words + page_words - 1) lsr page_bits

(* FNV-1a-style fold; the stdlib's generic hash truncates deep
   structures, so pages and images are folded by hand. *)
let hash_seed = 0x811c9dc5
let[@inline] hash_step h v = (h * 0x01000193) lxor v
let zero_page = Array.make page_words 0
let zero_hash = Array.fold_left hash_step hash_seed zero_page land max_int

type image = {
  i_words : int;
  i_pages : int array array;
  i_hashes : int array;
  i_copied : int;  (** pages freshly copied for this image (diagnostic) *)
}

type t = {
  space : space;
  size : int;
  mutable words : int array;  (* resident prefix *)
  mutable reads : int;
  mutable writes : int;
  (* snapshot support; [dirty]/[dirty_pages] stay empty until the first
     snapshot so untracked memories pay one dead branch per write *)
  mutable track : bool;
  mutable dirty : Bytes.t;  (* one byte per resident page; '\001' = dirty *)
  mutable dirty_pages : int array;  (* stack of dirty page indices *)
  mutable n_dirty : int;
  mutable base : image option;  (* image the dirty set is relative to *)
}

let create space ~words =
  if words < 0 then invalid_arg "Memory.create: negative size";
  {
    space;
    size = words;
    words = [||];
    reads = 0;
    writes = 0;
    track = false;
    dirty = Bytes.empty;
    dirty_pages = [||];
    n_dirty = 0;
    base = None;
  }

let space t = t.space
let size t = t.size

let[@inline never] out_of_bounds t addr op =
  invalid_arg
    (Printf.sprintf "Memory.%s: address %d out of bounds for %s[%d]" op addr
       (space_to_string t.space) t.size)

let[@inline] check t addr op = if addr < 0 || addr >= t.size then out_of_bounds t addr op

(* Word copy for every bulk path below. [Array.blit] runs the write
   barrier ([caml_modify]) per word when the destination lives in the
   major heap, as a resident prefix soon does, although the words are
   ints; a loop over [int array] stores them directly. Overlapping
   ranges of one array copy as [Array.blit] would. Callers check the
   ranges. *)
let blit_words (src : int array) src_pos (dst : int array) dst_pos len =
  if src == dst && src_pos < dst_pos then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
    done

(* Size the dirty set to cover [pages] pages, keeping its marks. *)
let cover_dirty t pages =
  if Bytes.length t.dirty < pages then begin
    let dirty = Bytes.make pages '\000' in
    Bytes.blit t.dirty 0 dirty 0 (Bytes.length t.dirty);
    let stack = Array.make pages 0 in
    Array.blit t.dirty_pages 0 stack 0 t.n_dirty;
    t.dirty <- dirty;
    t.dirty_pages <- stack
  end

(* Extend the resident prefix to at least [need] (<= size) words, out
   of line: a store within the prefix pays one compare. Int comparisons
   throughout: the polymorphic [min]/[max] call the generic
   comparator. *)
let[@inline never] grow t need =
  let len = Array.length t.words in
  let n = (Int.max need (2 * len) + page_words - 1) land lnot (page_words - 1) in
  let n = Int.min t.size n in
  let words = Array.make n 0 in
  blit_words t.words 0 words 0 len;
  t.words <- words;
  if t.track then cover_dirty t (pages_of n)

let[@inline] reserve t need = if need > Array.length t.words then grow t need

(* Dirty marking. Only reachable with [t.track] set, which implies the
   structures cover every resident page. *)
let[@inline] mark t addr =
  let p = addr lsr page_bits in
  if Bytes.unsafe_get t.dirty p = '\000' then begin
    Bytes.unsafe_set t.dirty p '\001';
    t.dirty_pages.(t.n_dirty) <- p;
    t.n_dirty <- t.n_dirty + 1
  end

let mark_range t addr words =
  if words > 0 then
    for p = addr lsr page_bits to (addr + words - 1) lsr page_bits do
      if Bytes.unsafe_get t.dirty p = '\000' then begin
        Bytes.unsafe_set t.dirty p '\001';
        t.dirty_pages.(t.n_dirty) <- p;
        t.n_dirty <- t.n_dirty + 1
      end
    done

let clear_dirty t =
  for i = 0 to t.n_dirty - 1 do
    Bytes.unsafe_set t.dirty t.dirty_pages.(i) '\000'
  done;
  t.n_dirty <- 0

let[@inline] read t addr =
  check t addr "read";
  t.reads <- t.reads + 1;
  if addr < Array.length t.words then Array.unsafe_get t.words addr else 0

(* Out of line, unlike [read]: [Machine.write] is inlined at every store
   site of the VM's dispatch loop, and inlining this body there too
   made the benchmark's VM runs about 20% slower (traced montecarlo
   [vm.run_us]), while inlining [read] sped up the verify workload. *)
let write t addr v =
  check t addr "write";
  t.writes <- t.writes + 1;
  reserve t (addr + 1);
  if t.track then mark t addr;
  Array.unsafe_set t.words addr v

let blit ~src ~src_addr ~dst ~dst_addr ~words =
  if words < 0 then invalid_arg "Memory.blit: negative length";
  if words > 0 then begin
    check src src_addr "blit";
    check src (src_addr + words - 1) "blit";
    check dst dst_addr "blit";
    check dst (dst_addr + words - 1) "blit";
    reserve dst (dst_addr + words);
    (* source words past [src]'s resident prefix read as 0; measured
       after [dst] grew, which may be the same memory *)
    let resident = Int.max 0 (Int.min words (Array.length src.words - src_addr)) in
    if resident > 0 then blit_words src.words src_addr dst.words dst_addr resident;
    if resident < words then Array.fill dst.words (dst_addr + resident) (words - resident) 0;
    src.reads <- src.reads + words;
    dst.writes <- dst.writes + words;
    if dst.track then mark_range dst dst_addr words
  end

(* Each range is checked once and [reads] advances by both lengths, as
   the per-word [read] loop would. A word past the resident prefix reads
   as 0 and zeroes its product, so only the terms where both ranges are
   resident are summed; int sums wrap, so skipping zero terms leaves the
   total unchanged. *)
let dot t a b len =
  if len <= 0 then 0
  else begin
    check t a "dot";
    check t (a + len - 1) "dot";
    check t b "dot";
    check t (b + len - 1) "dot";
    t.reads <- t.reads + (2 * len);
    let w = t.words in
    let resident = Int.max 0 (Int.min len (Array.length w - Int.max a b)) in
    let acc = ref 0 in
    for i = 0 to resident - 1 do
      acc := !acc + (Array.unsafe_get w (a + i) * Array.unsafe_get w (b + i))
    done;
    !acc
  end

(* Bulk image store: counters advance exactly as [write] per word would,
   so metrics are unchanged — only the per-word call overhead goes. *)
let load t addr values =
  let words = Array.length values in
  if words > 0 then begin
    check t addr "load";
    check t (addr + words - 1) "load";
    reserve t (addr + words);
    blit_words values 0 t.words addr words;
    t.writes <- t.writes + words;
    if t.track then mark_range t addr words
  end

let clear_prefix t words =
  if words < 0 || words > t.size then invalid_arg "Memory.clear_prefix";
  reserve t words;
  Array.fill t.words 0 words 0;
  if t.track then mark_range t 0 words

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0

let reads t = t.reads
let writes t = t.writes

let set_counters t ~reads ~writes =
  t.reads <- reads;
  t.writes <- writes

(* The hash of resident page [p]'s words, or -1 when they are all
   zero. *)
let page_hash t p =
  let base = p lsl page_bits in
  let h = ref hash_seed and nonzero = ref 0 in
  for i = base to Int.min (Array.length t.words) (base + page_words) - 1 do
    let v = Array.unsafe_get t.words i in
    h := hash_step !h v;
    nonzero := !nonzero lor v
  done;
  if !nonzero = 0 then -1 else !h land max_int

(* Copy and hash resident page [p] into slot [p] of a directory; an
   all-zero page becomes the shared [zero_page]. *)
let capture_page t pages hashes p =
  let h = page_hash t p in
  if h < 0 then begin
    pages.(p) <- zero_page;
    hashes.(p) <- zero_hash
  end
  else begin
    let base = p lsl page_bits in
    pages.(p) <- Array.sub t.words base (Int.min page_words (Array.length t.words - base));
    hashes.(p) <- h
  end

let[@inline] page_of img p =
  if p < Array.length img.i_pages then Array.unsafe_get img.i_pages p else zero_page

let snapshot t =
  let pages = pages_of (Array.length t.words) in
  cover_dirty t pages;
  let i_pages = Array.make pages zero_page and i_hashes = Array.make pages zero_hash in
  let i_copied =
    match t.base with
    | None ->
        (* first snapshot (or first after [untrack]): full copy; counted
           as every nominal page, the pages past the prefix being zero *)
        for p = 0 to pages - 1 do
          capture_page t i_pages i_hashes p
        done;
        pages_of t.size
    | Some base ->
        (* the prefix never shrinks and [restore] grows it over the
           image it installs, so [base] fits in [pages] *)
        let n = Array.length base.i_pages in
        Array.blit base.i_pages 0 i_pages 0 n;
        Array.blit base.i_hashes 0 i_hashes 0 n;
        for i = 0 to t.n_dirty - 1 do
          capture_page t i_pages i_hashes t.dirty_pages.(i)
        done;
        t.n_dirty
  in
  let img = { i_words = t.size; i_pages; i_hashes; i_copied } in
  clear_dirty t;
  t.base <- Some img;
  t.track <- true;
  img

let restore t img =
  if img.i_words <> t.size then invalid_arg "Memory.restore: size mismatch";
  reserve t (Int.min t.size (Array.length img.i_pages lsl page_bits));
  let len = Array.length t.words in
  let pages = pages_of len in
  cover_dirty t pages;
  for p = 0 to pages - 1 do
    let stale =
      match t.base with
      | None -> true
      | Some base ->
          (* a live page differs from [img] only if it was written since
             [base] was taken (dirty) or the two images disagree on it; a
             physical page-ref compare over-approximates the latter,
             which only costs a redundant copy *)
          Bytes.unsafe_get t.dirty p = '\001' || page_of img p != page_of base p
    in
    if stale then begin
      let base = p lsl page_bits and page = page_of img p in
      (* a page is [page_words] long unless it ends a memory whose size
         is no page multiple, and then so does the live prefix *)
      blit_words page 0 t.words base (Int.min (Array.length page) (len - base))
    end
  done;
  clear_dirty t;
  t.base <- Some img;
  t.track <- true

let untrack t =
  clear_dirty t;
  t.track <- false;
  t.base <- None

let image_get img addr =
  if addr < 0 || addr >= img.i_words then invalid_arg "Memory.image_get: out of bounds";
  (page_of img (addr lsr page_bits)).(addr land (page_words - 1))

let image_copied img = img.i_copied

(* Folds the page hashes up to the last non-zero page, so equal contents
   hash equal whatever resident length each image was captured at. *)
let image_hash img =
  let last = ref (Array.length img.i_pages) in
  while !last > 0 && img.i_pages.(!last - 1) == zero_page do
    decr last
  done;
  let h = ref hash_seed in
  for p = 0 to !last - 1 do
    h := hash_step !h img.i_hashes.(p)
  done;
  !h land max_int

(* The live contents against the copy-on-write base: a page that was
   not written since [base] was taken holds the base's page. *)
let[@inline] clean t p = t.track && Bytes.unsafe_get t.dirty p = '\000'

(* [image_hash (snapshot t)] without the capture: a clean page takes the
   base's page hash, a dirty one is hashed from the words, and zero
   pages fold only when a non-zero page follows them. *)
let hash t =
  let len = Array.length t.words in
  let h = ref hash_seed and zeros = ref 0 in
  for p = 0 to pages_of len - 1 do
    let ph =
      match t.base with
      | Some base when clean t p ->
          if page_of base p == zero_page then -1 else Array.unsafe_get base.i_hashes p
      | _ -> page_hash t p
    in
    if ph < 0 then incr zeros
    else begin
      for _ = 1 to !zeros do
        h := hash_step !h zero_hash
      done;
      zeros := 0;
      h := hash_step !h ph
    end
  done;
  !h land max_int

(* Word for word, reading in place: a clean page whose base page is
   the image's own page is equal without a look at its words. *)
let same t img =
  img.i_words = t.size
  &&
  let len = Array.length t.words in
  let live_pages = pages_of len in
  let page_equal p =
    let want = page_of img p in
    (match t.base with
    | Some base when p < live_pages && clean t p -> page_of base p == want
    | _ -> false)
    ||
    let first = p lsl page_bits in
    let rec word i =
      i >= Array.length want
      || (if first + i < len then Array.unsafe_get t.words (first + i) else 0)
         = Array.unsafe_get want i
         && word (i + 1)
    in
    word 0
  in
  let rec from p =
    p >= Int.max live_pages (Array.length img.i_pages) || (page_equal p && from (p + 1))
  in
  from 0
