(* Tests for the simulated loopback network: connection establishment,
   message ordering, blocking recv with latency accounting, close
   semantics, and waitset-based multiplexing. *)

module Sched = Simkern.Sched
module Cost = Simkern.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let run_sim f =
  let sched = Sched.create () in
  f sched;
  Sched.run sched;
  List.iter
    (fun (_, name, oc) ->
      match oc with
      | Sched.Completed -> ()
      | Sched.Failed e ->
          Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e))
    (Sched.outcomes sched)

let test_echo_roundtrip () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            match Netsim.recv c with
            | Some msg -> Netsim.send c ("echo:" ^ msg)
            | None -> Alcotest.fail "server saw close")
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c "hello";
            match Netsim.recv c with
            | Some reply -> check string "echoed" "echo:hello" reply
            | None -> Alcotest.fail "no reply")
      in
      ())

let test_message_ordering () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let got = ref [] in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            for _ = 1 to 5 do
              match Netsim.recv c with
              | Some m -> got := m :: !got
              | None -> ()
            done)
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            for i = 1 to 5 do
              Netsim.send c (string_of_int i)
            done)
      in
      ());
  ()

let test_ordering_preserved () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            let msgs = List.init 5 (fun _ -> Option.get (Netsim.recv c)) in
            check
              (Alcotest.list string)
              "fifo order"
              [ "1"; "2"; "3"; "4"; "5" ]
              msgs)
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            List.iter (Netsim.send c) [ "1"; "2"; "3"; "4"; "5" ])
      in
      ())

let test_latency_advances_clock () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            let before = Sched.now () in
            (match Netsim.recv c with Some _ -> () | None -> ());
            check bool "recv advanced past message latency" true
              (Sched.now () >= before))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c (String.make 1000 'x'))
      in
      ())

let test_close_wakes_receiver () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            check bool "recv returns None on close" true (Netsim.recv c = None))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Sched.sleep 5_000.0;
            Netsim.close c)
      in
      ())

let test_pending_messages_before_close () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            Sched.sleep 100_000.0;
            (* The client has sent then closed: the data must still be
               readable before the close is reported. *)
            check bool "message first" true (Netsim.recv c = Some "last words");
            check bool "then close" true (Netsim.recv c = None))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c "last words";
            Netsim.close c)
      in
      ())

let test_waitset_multiplexes () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let served = ref 0 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let ws = Netsim.Waitset.create () in
            for _ = 1 to 3 do
              Netsim.Waitset.add ws (Option.get (Netsim.accept l))
            done;
            let finished = ref 0 in
            while !finished < 3 do
              match Netsim.Waitset.wait ws with
              | None -> finished := 3
              | Some c -> (
                  match Netsim.recv c with
                  | Some msg ->
                      incr served;
                      Netsim.send c ("ok:" ^ msg)
                  | None ->
                      Netsim.Waitset.remove ws c;
                      incr finished)
            done)
      in
      for i = 1 to 3 do
        ignore
          (Sched.spawn sched
             ~name:(Printf.sprintf "client%d" i)
             (fun () ->
               let c = Netsim.connect net ~port:80 in
               Sched.sleep (float_of_int (i * 1000));
               Netsim.send c (string_of_int i);
               (match Netsim.recv c with
               | Some r -> check string "reply" ("ok:" ^ string_of_int i) r
               | None -> Alcotest.fail "no reply");
               Netsim.close c))
      done;
      Sched.run sched;
      check int "all three served" 3 !served)

let test_send_after_close_is_noop () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () -> ignore (Option.get (Netsim.accept l)))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.close c;
            Netsim.send c "into the void";
            check bool "still closed" false (Netsim.is_open c))
      in
      ())

(* {1 Waitset pick, against the O(n) reference}

   The waitset scans only the members that may be ready. The reference
   below is the full scan it replaced: every member in rotation order
   from the cursor, earliest head-of-line arrival wins (a closed side
   with an empty inbox counts as [neg_infinity]), the first in rotation
   order wins a tie, and the cursor moves just past the winner. Random
   programs of add/remove/send/close/recv/wait steps must leave both
   with the same winner and the same cursor after every step. *)

module Ref_ws = struct
  type t = { mutable watched : Netsim.conn list; mutable cursor : int }

  let ready c =
    Netsim.queued c > 0 || Netsim.peer_closed c || not (Netsim.is_open c)

  (* Returns the winner and whether another ready member tied its
     (finite) key. *)
  let pick m =
    match m.watched with
    | [] -> (None, false)
    | watched ->
        let n = List.length watched in
        let arr = Array.of_list watched in
        let best = ref None and tie = ref false in
        for i = 0 to n - 1 do
          let idx = (m.cursor + i) mod n in
          let c = arr.(idx) in
          if ready c then begin
            let key =
              match Netsim.head_arrival c with
              | Some arrival -> arrival
              | None -> neg_infinity
            in
            match !best with
            | Some (bkey, _, _) when bkey <= key ->
                if bkey = key && key > neg_infinity then tie := true
            | _ -> best := Some (key, idx, c)
          end
        done;
        (match !best with
        | Some (_, idx, _) -> m.cursor <- (idx + 1) mod n
        | None -> ());
        (Option.map (fun (_, _, c) -> c) !best, !tie)
end

let waitset_model_run seed =
  let sched = Sched.create () in
  let net = Netsim.create Cost.default in
  let action = ref Netsim.Deliver in
  Netsim.set_fault_hook net (Some (fun ~len:_ -> !action));
  let l = Netsim.listen net ~port:80 in
  let rng = Simkern.Rng.create seed in
  let pick_one = function
    | [] -> None
    | xs -> Some (List.nth xs (Simkern.Rng.int rng (List.length xs)))
  in
  let ties = ref 0 and picks = ref 0 in
  let _ =
    Sched.spawn sched ~name:"driver" (fun () ->
        let ws = Netsim.Waitset.create () in
        let m = { Ref_ws.watched = []; cursor = 0 } in
        (* (client, server) pairs ever made; servers may or may not be
           watched. *)
        let pairs = ref [] in
        let same what a b =
          match (a, b) with
          | None, None -> ()
          | Some a, Some b when a == b -> ()
          | _ ->
              Alcotest.failf "seed %d: %s picked %s, reference %s" seed what
                (match a with Some c -> string_of_int (Netsim.id c) | None -> "-")
                (match b with Some c -> string_of_int (Netsim.id c) | None -> "-")
        in
        let model_pick () =
          let c, tie = Ref_ws.pick m in
          if c <> None then incr picks;
          if tie then incr ties;
          c
        in
        for step = 1 to 1000 do
          (match Simkern.Rng.int rng 10 with
          | 0 | 1 ->
              let client = Netsim.connect net ~port:80 in
              let server = Option.get (Netsim.accept l) in
              pairs := (client, server) :: !pairs;
              Netsim.Waitset.add ws server;
              m.watched <- m.watched @ [ server ]
          | 2 -> (
              match pick_one m.watched with
              | Some c ->
                  Netsim.Waitset.remove ws c;
                  m.watched <- List.filter (fun e -> not (e == c)) m.watched
              | None -> ())
          | 3 | 4 | 5 -> (
              match pick_one !pairs with
              | Some (client, _) ->
                  let len = 1 + Simkern.Rng.int rng 64 in
                  action :=
                    (match Simkern.Rng.int rng 8 with
                    | 0 -> Netsim.Drop
                    | 1 -> Netsim.Truncate (Simkern.Rng.int rng len)
                    | 2 -> Netsim.Delay (float_of_int (Simkern.Rng.int rng 20_000))
                    | 3 | 4 ->
                        (* Land on a shared arrival grid so keys tie. *)
                        let lat = 1_200.0 +. (0.3 *. float_of_int len) in
                        let grid = 50_000.0 in
                        let at = Sched.now () +. (2.0 *. lat) in
                        Netsim.Delay ((Float.of_int (truncate (at /. grid)) +. 1.0) *. grid -. at)
                    | _ -> Netsim.Deliver);
                  Netsim.send client (String.make len 'x');
                  action := Netsim.Deliver
              | None -> ())
          | 6 -> (
              match pick_one !pairs with
              | Some (client, server) ->
                  Netsim.close (if Simkern.Rng.bool rng then client else server)
              | None -> ())
          | 7 -> (
              match pick_one (List.filter (fun c -> Netsim.queued c > 0) m.watched) with
              | Some c -> ignore (Netsim.recv c)
              | None -> ())
          | 8 -> (
              match model_pick () with
              | Some expect ->
                  let got = Netsim.Waitset.wait ws in
                  same "wait" got (Some expect);
                  if Netsim.queued expect = 0 then begin
                    (* Reported for a close: clean up, as a server does. *)
                    Netsim.Waitset.remove ws expect;
                    m.watched <- List.filter (fun e -> not (e == expect)) m.watched
                  end
                  else if Simkern.Rng.bool rng then ignore (Netsim.try_recv expect)
              | None ->
                  same "empty wait"
                    (Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now ()))
                    None)
          | _ ->
              let deadline =
                Sched.now () +. float_of_int (Simkern.Rng.int rng 30_000)
              in
              let expect =
                match model_pick () with
                | Some c -> (
                    match Netsim.head_arrival c with
                    | Some arrival when arrival > deadline -> None
                    | _ -> Some c)
                | None ->
                    (* Nothing ready: the timed suspension runs out (no
                       other thread sends), and the re-pick finds nothing
                       again. *)
                    ignore (model_pick ());
                    None
              in
              same "wait_deadline" (Netsim.Waitset.wait_deadline ws ~deadline) expect);
          check int
            (Printf.sprintf "seed %d step %d: cursor" seed step)
            m.Ref_ws.cursor (Netsim.Waitset.cursor ws);
          check int
            (Printf.sprintf "seed %d step %d: size" seed step)
            (List.length m.Ref_ws.watched) (Netsim.Waitset.size ws)
        done)
  in
  Sched.run sched;
  (!picks, !ties)

let test_waitset_matches_reference () =
  let picks, ties =
    List.fold_left
      (fun (p, t) seed ->
        let p', t' = waitset_model_run seed in
        (p + p', t + t'))
      (0, 0) [ 1; 2; 3; 4; 5 ]
  in
  (* The comparison only means something if the programs exercised
     picks, and ties the rotation has to break. *)
  check bool (Printf.sprintf "picks made (%d)" picks) true (picks > 100);
  check bool (Printf.sprintf "ties broken (%d)" ties) true (ties > 10)

let () =
  Alcotest.run "netsim"
    [
      ( "conn",
        [
          Alcotest.test_case "echo roundtrip" `Quick test_echo_roundtrip;
          Alcotest.test_case "ordering" `Quick test_ordering_preserved;
          Alcotest.test_case "multi message" `Quick test_message_ordering;
          Alcotest.test_case "latency" `Quick test_latency_advances_clock;
        ] );
      ( "close",
        [
          Alcotest.test_case "close wakes receiver" `Quick test_close_wakes_receiver;
          Alcotest.test_case "pending before close" `Quick test_pending_messages_before_close;
          Alcotest.test_case "send after close" `Quick test_send_after_close_is_noop;
        ] );
      ( "waitset",
        [
          Alcotest.test_case "multiplex" `Quick test_waitset_multiplexes;
          Alcotest.test_case "pick matches reference, 5 seeds" `Quick
            test_waitset_matches_reference;
        ] );
    ]
