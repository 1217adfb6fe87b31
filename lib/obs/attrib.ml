(* Blame pass and contention-table rendering (see attrib.mli and DESIGN.md
   "Attribution & flight recorder").

   The sketch arrives populated by the live feed sites (conflict edges,
   lock waits, SIREAD grants, FCW blocks, promotions, summarizations);
   [blame] adds the one attribution only certificates can supply — which
   resource sat under each pivot edge of an unsafe abort. All rendering
   uses one numeric format and {!Obs.res_id_escape}, so equal data prints
   byte-identically (the -j1/-j4 diff rules lean on this). *)

let blame sk certs =
  List.iter
    (fun c ->
      if c.Obs.c_reason = "unsafe" then
        match c.Obs.c_cert with
        | Obs.Ssi_pivot { sp_in_edge; sp_out_edge; _ } ->
            (match sp_out_edge with
            | Some e ->
                let s = Sketch.touch sk e.Obs.ce_resource in
                s.Sketch.st_blame_out <- s.Sketch.st_blame_out + 1
            | None -> ());
            (match sp_in_edge with
            | Some e ->
                let s = Sketch.touch sk e.Obs.ce_resource in
                s.Sketch.st_blame_in <- s.Sketch.st_blame_in + 1
            | None -> ())
        | _ -> ())
    certs

let table ?top sk =
  match top with None -> Sketch.entries sk | Some k -> Sketch.top sk k

let render_summary buf sk =
  let n = Sketch.total sk and cap = Sketch.capacity sk in
  Printf.bprintf buf
    "sketch: updates=%d capacity=%d tracked=%d max-overcount=%d bound<=N/capacity=%d\n" n cap
    (Sketch.cardinality sk) (Sketch.error_bound sk) (n / cap)

let columns =
  [
    "count";
    "err";
    "conflicts";
    "blame-in";
    "blame-out";
    "blame-fcw";
    "lock-waits";
    "lock-wait-s";
    "siread";
    "promoted";
    "summarized";
  ]

let cells (s : Sketch.stats) =
  [
    string_of_int s.Sketch.st_count;
    string_of_int s.Sketch.st_err;
    string_of_int s.Sketch.st_conflicts;
    string_of_int s.Sketch.st_blame_in;
    string_of_int s.Sketch.st_blame_out;
    string_of_int s.Sketch.st_blame_fcw;
    string_of_int s.Sketch.st_lock_waits;
    Timeline.num s.Sketch.st_lock_wait;
    string_of_int s.Sketch.st_siread;
    string_of_int s.Sketch.st_promotions;
    string_of_int s.Sketch.st_summarized;
  ]

let render_table buf ?top sk =
  let rows =
    List.map (fun (r, s) -> (Obs.res_id_escape r, cells s)) (table ?top sk)
  in
  let rwidth =
    List.fold_left (fun acc (r, _) -> max acc (String.length r)) (String.length "resource") rows
  in
  let widths =
    List.fold_left
      (fun acc (_, cs) -> List.map2 (fun w c -> max w (String.length c)) acc cs)
      (List.map String.length columns) rows
  in
  let pad_left w s = String.make (w - String.length s) ' ' ^ s in
  let pad_right w s = s ^ String.make (w - String.length s) ' ' in
  Buffer.add_string buf (pad_right rwidth "resource");
  List.iter2
    (fun w c ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (pad_left w c))
    widths columns;
  Buffer.add_char buf '\n';
  List.iter
    (fun (r, cs) ->
      Buffer.add_string buf (pad_right rwidth r);
      List.iter2
        (fun w c ->
          Buffer.add_string buf "  ";
          Buffer.add_string buf (pad_left w c))
        widths cs;
      Buffer.add_char buf '\n')
    rows

(* {1 Per-window blame series} *)

type wblame = {
  wb_window : int;
  wb_t0 : float;
  wb_resource : string;
  wb_in : int;
  wb_out : int;
  wb_fcw : int;
}

let blame_windows ~window ?horizon certs =
  if not (window > 0.0) then invalid_arg "Attrib.blame_windows: window width must be positive";
  let horizon =
    match horizon with
    | Some h -> h
    | None -> List.fold_left (fun acc c -> Float.max acc c.Obs.c_ts) 0.0 certs
  in
  let idx = Timeline.window_of ~window ~count:(Timeline.window_count ~window ~horizon) in
  let tbl : (int * string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  let bump key f =
    let cur = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0, 0) in
    Hashtbl.replace tbl key (f cur)
  in
  List.iter
    (fun c ->
      let w = idx c.Obs.c_ts in
      match c.Obs.c_cert with
      | Obs.Ssi_pivot { sp_in_edge; sp_out_edge; _ } when c.Obs.c_reason = "unsafe" ->
          (match sp_out_edge with
          | Some e -> bump (w, e.Obs.ce_resource) (fun (i, o, f) -> (i, o + 1, f))
          | None -> ());
          (match sp_in_edge with
          | Some e -> bump (w, e.Obs.ce_resource) (fun (i, o, f) -> (i + 1, o, f))
          | None -> ())
      | Obs.Fcw_block { fb_resource; _ } ->
          bump (w, fb_resource) (fun (i, o, f) -> (i, o, f + 1))
      | _ -> ())
    certs;
  Hashtbl.fold
    (fun (w, r) (i, o, f) acc ->
      {
        wb_window = w;
        wb_t0 = float_of_int w *. window;
        wb_resource = r;
        wb_in = i;
        wb_out = o;
        wb_fcw = f;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         if a.wb_window <> b.wb_window then compare a.wb_window b.wb_window
         else compare a.wb_resource b.wb_resource)

let windows_csv buf rows =
  Buffer.add_string buf "window,t0,resource,blame_in,blame_out,blame_fcw\n";
  List.iter
    (fun r ->
      Printf.bprintf buf "%d,%s,%s,%d,%d,%d\n" r.wb_window (Timeline.num r.wb_t0)
        (Obs.res_id_escape r.wb_resource)
        r.wb_in r.wb_out r.wb_fcw)
    rows

let windows_ndjson buf rows =
  List.iter
    (fun r ->
      Printf.bprintf buf
        {|{"window":%d,"t0":%s,"resource":"%s","blame_in":%d,"blame_out":%d,"blame_fcw":%d}|}
        r.wb_window (Timeline.num r.wb_t0)
        (Obs.res_id_escape r.wb_resource)
        r.wb_in r.wb_out r.wb_fcw;
      Buffer.add_char buf '\n')
    rows
