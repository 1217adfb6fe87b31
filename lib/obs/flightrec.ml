(* Flight recorder: anomaly triggers read off a run's timeline, and the cut
   of the trace they freeze into a post-mortem bundle (see flightrec.mli and
   DESIGN.md "Attribution & flight recorder").

   The timeline is the one fold of the trace into windows; a trigger only
   reads its windows in order. The ring is the last [capacity] events up to
   the end of the firing window — the same events a drop-oldest ring would
   hold had it been fed the stream and frozen at the firing boundary. *)

type t = { fr_cap : int; fr_events : (float * Obs.event) list; fr_drops : int }

let capacity t = t.fr_cap

let length t = List.length t.fr_events

let drops t = t.fr_drops

let contents t = t.fr_events

(* {1 Triggers} *)

type trigger = Abort_storm of float | Slo_violation of Timeline.slo | Regime of string

let num = Timeline.num

let trigger_to_string = function
  | Abort_storm x -> Printf.sprintf "abort_rate:%s" (num x)
  | Slo_violation s ->
      Printf.sprintf "slo:%s:%s" (num s.Timeline.slo_abort_rate) (num s.Timeline.slo_p95)
  | Regime series -> Printf.sprintf "regime:%s" series

let trigger_of_string spec =
  match String.split_on_char ':' spec with
  | [ "abort_rate"; x ] -> (
      match float_of_string_opt x with
      | Some v when v > 0.0 && v <= 1.0 -> Ok (Abort_storm v)
      | _ -> Error (Printf.sprintf "abort_rate threshold must be in (0,1]: %s" x))
  | [ "slo" ] -> Ok (Slo_violation { Timeline.slo_abort_rate = 0.5; slo_p95 = 0.1 })
  | [ "slo"; rate; p95 ] -> (
      match (float_of_string_opt rate, float_of_string_opt p95) with
      | Some r, Some p when r >= 0.0 && p > 0.0 ->
          Ok (Slo_violation { Timeline.slo_abort_rate = r; slo_p95 = p })
      | _ -> Error (Printf.sprintf "bad slo spec: %s" spec))
  | [ "regime" ] -> Ok (Regime "throughput")
  | [ "regime"; series ] ->
      if List.mem series Timeline.series_names then Ok (Regime series)
      else Error (Printf.sprintf "unknown timeline series: %s" series)
  | _ -> Error (Printf.sprintf "unknown trigger (want abort_rate:X | slo[:RATE:P95] | regime[:SERIES]): %s" spec)

type incident = {
  in_trigger : string;
  in_window : int;
  in_ts : float;
  in_detail : string;
}

(* [check w] is the firing evidence of window [w], if the trigger holds
   there. *)
let check trigger tl =
  match trigger with
  | Abort_storm thr ->
      let rate = Timeline.series tl "abort-rate" in
      let aborts = Timeline.series tl "aborts" and commits = Timeline.series tl "commits" in
      fun w ->
        if aborts.(w) > 0.0 && rate.(w) >= thr then
          Some
            (Printf.sprintf "abort-rate %s >= %s (%d error aborts / %d commits)" (num rate.(w))
               (num thr) (int_of_float aborts.(w)) (int_of_float commits.(w)))
        else None
  | Slo_violation slo ->
      fun w ->
        List.find_map
          (fun (cls, rows) ->
            match Timeline.class_rates rows.(w) with
            | Some (rate, _) when rate > slo.Timeline.slo_abort_rate ->
                Some
                  (Printf.sprintf "class %s abort-rate %s > %s" cls (num rate)
                     (num slo.Timeline.slo_abort_rate))
            | Some (_, p95) when p95 > slo.Timeline.slo_p95 ->
                Some
                  (Printf.sprintf "class %s p95 %s > %s" cls (num p95)
                     (num slo.Timeline.slo_p95))
            | _ -> None)
          tl.Timeline.tl_classes
  | Regime series -> (
      match Timeline.change_points tl ~series with
      | [] -> fun _ -> None
      | mk :: _ ->
          fun w ->
            if w = mk.Timeline.mk_window then
              Some
                (Printf.sprintf "page-hinkley %s mark on %s at window %d"
                   (match mk.Timeline.mk_direction with `Up -> "up" | `Down -> "down")
                   series w)
            else None)

let run ~capacity ~trigger tl events =
  if capacity < 1 then invalid_arg "Flightrec.run: capacity must be >= 1";
  let width = tl.Timeline.tl_width in
  let window_of = Timeline.window_of ~window:width ~count:(Array.length tl.Timeline.tl_windows) in
  (* A window is checked once the trace has reached it: windows past the
     last event's are never checked, and with no events window 0 is. *)
  let last = List.fold_left (fun acc (ts, _) -> max acc (window_of ts)) 0 events in
  let check = check trigger tl in
  let rec first w =
    if w > last then None
    else
      match check w with
      | Some detail ->
          Some
            {
              in_trigger = trigger_to_string trigger;
              in_window = w;
              in_ts = float_of_int (w + 1) *. width;
              in_detail = detail;
            }
      | None -> first (w + 1)
  in
  let incident = first 0 in
  let upto =
    match incident with
    | None -> events
    | Some i -> List.filter (fun (ts, _) -> window_of ts <= i.in_window) events
  in
  let drops = max 0 (List.length upto - capacity) in
  ({ fr_cap = capacity; fr_events = List.filteri (fun i _ -> i >= drops) upto; fr_drops = drops },
   incident)

(* {1 Bundle} *)

let write_bundle buf ~recorder ~incident ~sk ~top ~certs =
  Printf.bprintf buf "# flight-recorder post-mortem bundle\n";
  Printf.bprintf buf "trigger: %s\n" incident.in_trigger;
  Printf.bprintf buf "fired: window %d t=%s %s\n" incident.in_window (num incident.in_ts)
    incident.in_detail;
  Printf.bprintf buf "ring: %d events, %d dropped (capacity %d)\n" (length recorder)
    (drops recorder) (capacity recorder);
  Buffer.add_string buf "--- ring ---\n";
  List.iter
    (fun ev ->
      Buffer.add_string buf (Obs.event_json ev);
      Buffer.add_char buf '\n')
    (contents recorder);
  Buffer.add_string buf "--- contention ---\n";
  Attrib.render_summary buf sk;
  Attrib.render_table buf ~top sk;
  Buffer.add_string buf "--- dot ---\n";
  let dot =
    List.fold_left
      (fun acc c -> if c.Obs.c_ts <= incident.in_ts && c.Obs.c_dot <> "" then Some c.Obs.c_dot else acc)
      None certs
  in
  match dot with
  | Some d ->
      Buffer.add_string buf d;
      if String.length d = 0 || d.[String.length d - 1] <> '\n' then Buffer.add_char buf '\n'
  | None -> Buffer.add_string buf "none\n"
