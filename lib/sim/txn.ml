(* Per-thread RTM transaction state: eager conflict detection (ownership
   is acquired at access time via the Line_table) with lazy versioning
   (stores are buffered and applied at commit, so an abort simply discards
   the buffer).

   One value of this type is a reusable *arena* owned by a hardware
   thread for its whole life: [reset] starts a new transaction in O(1) by
   bumping an epoch counter, which invalidates every slot of the buffered
   write table at once — no per-transaction hash tables, no per-access
   allocation, nothing to walk on abort.  Read/write-set *membership* is
   not stored here at all: it lives in the machine's flat Line_table
   (reader bit / writer slot per line); the arena only keeps the log of
   lines this transaction claimed, so releasing them on commit or abort
   is a linear walk of exactly the lines touched.

   Allocations performed inside the transaction are recorded for
   rollback; frees are deferred until commit. *)

type t = {
  tid : int;
  mutable start_clock : int;
  (* Buffered stores: open-addressing table addr -> value whose slots are
     valid only when stamped with the current epoch.  Power-of-two
     capacity, linear probing, grown (rarely) at 50% load. *)
  mutable keys : int array;
  mutable vals : int array;
  mutable stamp : int array;
  mutable mask : int;
  mutable epoch : int;
  mutable buffered : int; (* live slots this epoch *)
  (* Addresses in first-write order, for in-order commit replay. *)
  mutable wlog : int array;
  mutable wlog_len : int;
  (* Lines claimed in the Line_table (readers or writer), for release. *)
  mutable lines : int array;
  mutable lines_len : int;
  mutable allocs : (Euno_mem.Linemap.kind * int * int) list;
  mutable frees : (Euno_mem.Linemap.kind * int * int) list;
  mutable reclassifies :
    (Euno_mem.Linemap.kind * Euno_mem.Linemap.kind * int) list;
  mutable reads : int; (* distinct lines in the read set *)
  mutable written : int; (* distinct lines in the write set *)
}

let initial_buf = 64 (* slots; holds 32 buffered addresses before growing *)
let initial_log = 64

let create ~tid =
  {
    tid;
    start_clock = 0;
    keys = Array.make initial_buf 0;
    vals = Array.make initial_buf 0;
    stamp = Array.make initial_buf 0;
    mask = initial_buf - 1;
    epoch = 1;
    buffered = 0;
    wlog = Array.make initial_log 0;
    wlog_len = 0;
    lines = Array.make initial_log 0;
    lines_len = 0;
    allocs = [];
    frees = [];
    reclassifies = [];
    reads = 0;
    written = 0;
  }

let tid t = t.tid
let start_clock t = t.start_clock
let reads t = t.reads
let written t = t.written
let allocs t = t.allocs
let frees t = t.frees
let reclassifies t = t.reclassifies

(* O(1) regardless of what the previous transaction touched: the epoch
   bump invalidates every buffered-write slot, the logs reset by length. *)
let reset t ~start_clock =
  t.start_clock <- start_clock;
  t.epoch <- t.epoch + 1;
  t.buffered <- 0;
  t.wlog_len <- 0;
  t.lines_len <- 0;
  t.allocs <- [];
  t.frees <- [];
  t.reclassifies <- [];
  t.reads <- 0;
  t.written <- 0

(* Deterministic multiplicative hash; any mixing works, host-independent. *)
let[@inline] slot_hash t addr = (addr * 0x9E3779B97F4A7C1) lsr 16 land t.mask

(* Index of [addr]'s slot, or of the empty slot to insert it at. *)
let find_slot t addr =
  let i = ref (slot_hash t addr) in
  while t.stamp.(!i) = t.epoch && t.keys.(!i) <> addr do
    i := (!i + 1) land t.mask
  done;
  !i

let grow_buf t =
  let old_keys = t.keys and old_vals = t.vals and old_stamp = t.stamp in
  let old_cap = t.mask + 1 in
  let cap = 2 * old_cap in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.stamp <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to old_cap - 1 do
    if old_stamp.(i) = t.epoch then begin
      let j = find_slot t old_keys.(i) in
      t.keys.(j) <- old_keys.(i);
      t.vals.(j) <- old_vals.(i);
      t.stamp.(j) <- t.epoch
    end
  done

let log_line t line =
  if t.lines_len >= Array.length t.lines then begin
    let bigger = Array.make (2 * Array.length t.lines) 0 in
    Array.blit t.lines 0 bigger 0 t.lines_len;
    t.lines <- bigger
  end;
  t.lines.(t.lines_len) <- line;
  t.lines_len <- t.lines_len + 1

(* The machine calls these when the Line_table says the line is new to
   the respective set; the count is compared against the RTM capacity
   *after* the bump, so a capacity abort still counts the line. *)
let note_read t line =
  t.reads <- t.reads + 1;
  log_line t line

let note_write t line =
  t.written <- t.written + 1;
  log_line t line

let buffer_write t addr value =
  let i = find_slot t addr in
  if t.stamp.(i) <> t.epoch then begin
    (* First write to this address: log it and check the load factor. *)
    if t.wlog_len >= Array.length t.wlog then begin
      let bigger = Array.make (2 * Array.length t.wlog) 0 in
      Array.blit t.wlog 0 bigger 0 t.wlog_len;
      t.wlog <- bigger
    end;
    t.wlog.(t.wlog_len) <- addr;
    t.wlog_len <- t.wlog_len + 1;
    t.keys.(i) <- addr;
    t.vals.(i) <- value;
    t.stamp.(i) <- t.epoch;
    t.buffered <- t.buffered + 1;
    if 2 * t.buffered > t.mask then grow_buf t
  end
  else t.vals.(i) <- value

let is_buffered t addr = t.buffered > 0 && t.stamp.(find_slot t addr) = t.epoch

(* Only meaningful when [is_buffered t addr]; the two are split so the
   machine's read path tests and fetches without boxing an option. *)
let buffered t addr = t.vals.(find_slot t addr)

let buffered_value t addr =
  if t.buffered = 0 then None
  else
    let i = find_slot t addr in
    if t.stamp.(i) = t.epoch then Some t.vals.(i) else None

let iter_lines t f =
  for i = 0 to t.lines_len - 1 do
    f t.lines.(i)
  done

(* Closure-free, so the machine's commit and abort paths allocate
   nothing. *)
let release t lt =
  for i = 0 to t.lines_len - 1 do
    Line_table.remove_thread lt t.lines.(i) t.tid
  done

let write_count t = t.wlog_len
let write_addr t i = t.wlog.(i)

(* Buffered writes in program order of first write; last value per addr. *)
let iter_writes t f =
  for i = 0 to t.wlog_len - 1 do
    let addr = t.wlog.(i) in
    f addr (buffered t addr)
  done

let record_alloc t kind addr words = t.allocs <- (kind, addr, words) :: t.allocs
let record_free t kind addr words = t.frees <- (kind, addr, words) :: t.frees

let record_reclassify t from_kind to_kind words =
  t.reclassifies <- (from_kind, to_kind, words) :: t.reclassifies
