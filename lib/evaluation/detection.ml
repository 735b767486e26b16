type activity = { name : string; code : string; indicator : string * int }

let reported =
  List.map
    (fun (e : Maritime.Gold.entry) ->
      let def = Maritime.Gold.definition e.name in
      let indicator =
        match def.rules with
        | r :: _ -> (
          match Rtec.Ast.head_indicator r with
          | Some ind -> ind
          | None -> (e.name, 1))
        | [] -> (e.name, 1)
      in
      { name = e.name; code = Option.value ~default:e.name e.code; indicator })
    Maritime.Gold.reported

let detect ?(window = 3600) ?(step = 1800) ~event_description ~dataset () =
  match
    Runtime.run
      ~config:(Runtime.config ~window ~step ())
      ~event_description ~knowledge:dataset.Maritime.Dataset.knowledge
      ~stream:dataset.Maritime.Dataset.stream ()
  with
  | Ok (result, _stats) -> Ok result
  | Error e -> Error e

let instances result activity = Rtec.Engine.find_fluent result activity.indicator

let explain ?window ?step ~gold ~generated ~dataset () =
  Provenance.Diff.diff
    ~config:(Runtime.config ?window ?step ())
    ~gold ~generated ~knowledge:dataset.Maritime.Dataset.knowledge
    ~stream:dataset.Maritime.Dataset.stream ()
